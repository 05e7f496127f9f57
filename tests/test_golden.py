"""Golden bytes: the CLI's deterministic output on a fixed instance set.

Every ``generate`` file, ``solve`` and ``oracle`` stdout, ``bench`` CSV row
(without the ``wall_ms`` column) and ``report`` table is hashed and compared
with digests recorded from a known-good build.  A refactor that should not
change behaviour must leave all of them equal.
"""
import csv
import hashlib
import io

import pytest

from netcon.cli import main

VARIANTS = ("USRT", "SWRT", "L", "L_ETPC")
FAMILIES = ("euclidean_complete", "planar_road")
SOLVE_ALGOS = ("mst", "mst-loc-net", "mst-loc-sch", "ils-net", "ils-sch", "ts-net", "ts-sch")

# name -> sha256 of the bytes listed in the module docstring
GOLDEN = {
    "euclidean_complete-USRT":
        "8a9396d87d49239d9fbdc0524ce2c192b1a8e4123f748e5f83b56e568643f71a",
    "euclidean_complete-SWRT":
        "97d58382ffc6599d9831c98b18f6b6275065f6fd58663dbb0b12ebbd3f12f908",
    "euclidean_complete-L":
        "d74c5ab58132ae9347168faa6bb6af4b34057ce422d0e0109100069b9384cdc6",
    "euclidean_complete-L_ETPC":
        "cae5ad841fa6a4d8fb7a22c73715096252b7bd849f8736466a207fa65a52c871",
    "planar_road-USRT":
        "e37d7cd34be4638931e017ad302a455fb54a44509adb0466268e29f19119c7c3",
    "planar_road-SWRT":
        "51e9fd7047e60e6b78e73a25a2186c51cb4a5cb9d67df71f79c18340e2f4a428",
    "planar_road-L":
        "1a2316194b9602f71cec8a1116a4e54c0a61f14341b8efe955ef2d100b041095",
    "planar_road-L_ETPC":
        "0328cd8de58e8f396fdd340a050c4446ea55a10292a38a8033de31a16090141d",
    "bench": "316d0ca5c0b2fd2fcb4bbca72ca9af5a82eb27869f212662fe6956c1f53f757e",
    "report": "7d71de8b2396bd351475884984350c8a313fab315a672d6bd77c51ba016c1ed5",
}


def _out(capsys, *argv) -> str:
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_bytes(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "inst").mkdir()
    got = {}
    for k, (family, variant) in enumerate((f, v) for f in FAMILIES for v in VARIANTS):
        path = f"inst/{family}-{variant}.json"
        _out(capsys, "generate", "--family", family, "--n", "6", "--variant", variant,
             "--seed", str(k), "-o", path)
        parts = [(tmp_path / path).read_text()]
        for algo in SOLVE_ALGOS:
            parts.append(_out(capsys, "solve", path, "--algo", algo, "--seed", str(k),
                              "--max-iters", "2"))
        parts.append(_out(capsys, "oracle", path))
        got[f"{family}-{variant}"] = _sha("".join(parts))

    _out(capsys, "bench", "--instances-dir", "inst", "--algos",
         ",".join(SOLVE_ALGOS + ("oracle",)), "--seeds", "0,1", "--max-iters", "2",
         "--out", "bench.csv")
    with open("bench.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("wall_ms")
    buf = io.StringIO()
    csv.writer(buf).writerows([c for i, c in enumerate(row) if i != drop] for row in rows)
    got["bench"] = _sha(buf.getvalue())
    got["report"] = _sha(_out(capsys, "report", "--results", "bench.csv"))

    assert got == GOLDEN
