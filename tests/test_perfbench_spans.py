"""The benchmark's span tracer resolves every traced name in ``netcon``: a
renamed or deleted function fails here, not only when the benchmark runs."""
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def netcon_bindings() -> dict:
    return {
        (key, attr): value
        for key, module in list(sys.modules.items())
        if key == "netcon" or key.startswith("netcon.")
        for attr, value in vars(module).items()
    }


def test_installed_patches_and_restores_every_target():
    spans = load_spans()
    originals = [getattr(module, attr) for module, attr, _ in spans.FUNCTIONS]
    raw = [cls.__dict__[attr] for cls, attr, _ in spans.METHODS]
    before = netcon_bindings()
    with spans.installed(spans.Tracer()) as tracer:
        patched = [
            (module.__name__, attr)
            for (module, attr, _), fn in zip(spans.FUNCTIONS, originals)
            if getattr(module, attr) is not fn
        ]
        assert patched == [(module.__name__, attr) for module, attr, _ in spans.FUNCTIONS]
        assert tracer.bindings >= len(spans.FUNCTIONS) + len(spans.METHODS)
    assert [getattr(module, attr) for module, attr, _ in spans.FUNCTIONS] == originals
    assert [cls.__dict__[attr] for cls, attr, _ in spans.METHODS] == raw
    after = netcon_bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
