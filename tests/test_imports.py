"""What the library imports: numpy only, and nothing numpy loads lazily.

Both tests run in a fresh interpreter, because the test session itself may
already hold modules the library must not pull in.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FOOTPRINT = """
import contextlib, io, json, sys, tempfile
from matgroups import chartab, cli, ff, matgrp, wordmap

commands = [
    ["group", "--group", "SL2,q=5"],
    ["count", "surface", "--group", "SL2,q=5", "--genus", "2"],
    ["wordmap", "fiber", "--group", "SL2,q=5", "--word", "[x1,x2]", "--target", "1,1;0,1"],
    ["torsion", "witness", "--l", "7", "--n", "6", "--mode", "cond3"],
]
codes = []
with tempfile.TemporaryDirectory() as cache:
    for _ in range(2):  # the first pass fills the cache, the second reads it
        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.run([*argv, "--cache", cache]))
ctx = matgrp.group_build("SL", 2, ff.field_make(5))
chartab.character_table(ctx, seed=0)
ok = wordmap.commutative_transitivity_check(ctx)
json.dump({"codes": codes, "ct": ok,
           "loaded": [m for m in ("scipy", "numpy.ma") if m in sys.modules]}, sys.stdout)
"""

NO_SCIPY = """
import contextlib, io, json, sys, tempfile
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from matgroups import cli

out = {}
with tempfile.TemporaryDirectory() as cache:
    for name, argv in (("verify", ["verify"]),
                       ("chartable", ["chartable", "--group", "GL2,q=5"])):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run([*argv, "--cache", cache])
        out[name] = {"code": code, "result": json.loads(buf.getvalue())["result"]}
json.dump(out, sys.stdout)
"""


def _run(script: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("MATGROUPS_CACHE", None)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_and_cold_paths_load_neither_scipy_nor_numpy_ma():
    out = _run(FOOTPRINT)
    assert out["codes"] == [0] * 8
    assert out["ct"] is True
    assert out["loaded"] == []


def test_verify_and_cold_chartable_run_without_scipy():
    out = _run(NO_SCIPY)
    assert out["verify"]["code"] == 0
    assert out["verify"]["result"]["mismatches"] == 0
    assert out["verify"]["result"]["checks"] > 0
    assert out["chartable"]["code"] == 0
    assert sorted(out["chartable"]["result"]["degrees"]) == sorted(
        [1] * 4 + [4] * 10 + [5] * 4 + [6] * 6)
