"""The benchmark tracer's by-name hooks still find the program functions they wrap.

bench/tracer.py wraps functions and methods by name, so a rename in the
program would silently zero its per-layer metrics.  This runs the tracer
against the source tree in a subprocess and checks the matgrp metrics and
those of the tuple-scan engine.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys, tempfile
import matgroups, tracer
from matgroups import charbound, ff, homcount, matgrp

unresolved = [f"{mod}.{name}" for mod, names in tracer.PRIVATE.items()
              for name in names if not callable(getattr(getattr(matgroups, mod), name, None))]
unresolved += [f"{mod}.{cls}.{name}" for (mod, cls), names in tracer.METHODS.items()
               for name in names
               if not callable(getattr(getattr(getattr(matgroups, mod), cls, None), name, None))]
t = tracer.Tracer()
tracer.install(t, matgroups)
t.active = True
with tempfile.TemporaryDirectory() as cache:
    for _ in range(2):  # cold, then warm
        ctx = matgrp.group_build("GL", 2, ff.field_make(3), cache_dir=cache)
        ctx.classes
rep = next(c.representative for c in ctx.classes if c.is_semisimple)
charbound.fixed_subspace_count(rep, 1)
homcount.word_histogram(ctx, homcount.parse_word("[x1,x2]"))
homcount.hom_count_bruteforce(homcount.Presentation(2, ("x1 x2 x1 x2",)), ctx)
t.active = False
metrics = tracer.layer_metrics(t.calls, t.self_s, t.counts, len(t.spans["id"]))
json.dump({"unresolved": unresolved, "metrics": {k: v[0] for k, v in metrics.items()}},
          sys.stdout)
"""


def test_tracer_hooks_resolve_and_count():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    env.pop("MATGROUPS_CACHE", None)
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["unresolved"] == []
    metrics = out["metrics"]
    for name in ("matgrp.charpoly_calls", "matgrp.det_mats", "matgrp.classes",
                 "matgrp.cache_hits", "homcount.kernels", "homcount.eval_calls"):
        assert metrics[name] > 0, name
