"""Every module-level import in ``src/netcon`` is used: a deletion that
leaves an import behind fails here, not in a later clean-up.  The README's
library example imports only names that ``netcon`` exports."""
import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "netcon"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports (``__future__`` aside) that the
    module never names and does not list in ``__all__``."""
    tree = ast.parse(source)
    bound = []
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    named = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in named and name not in exported]


def test_detects_unused():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport sys\nfrom json import dumps as d, loads\n"
        "from re import sub\n__all__ = ['sub']\n"
        "print(sys.argv, loads)\n"
    )
    assert unused_imports(source) == ["os", "d"]


def test_modules_found():
    assert {p.name for p in MODULES} >= {"graph.py", "instances.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_readme_example_imports_exist():
    import netcon

    readme = (SRC.parent.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    imported = [
        alias.name
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "netcon"
        for alias in node.names
    ]
    assert imported
    assert [name for name in imported if not hasattr(netcon, name)] == []
