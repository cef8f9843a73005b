"""Every demo script runs to completion against the source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_exits_zero(path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("MATGROUPS_CACHE", None)
    proc = subprocess.run([sys.executable, str(path)], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
