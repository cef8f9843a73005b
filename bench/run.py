"""matgroups benchmark: four workloads, exactness-gated end-to-end metrics,
per-layer metrics from a separate traced run.

    python3 bench/run.py --workload formula-sweep --seed 0 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from its ``src``.

A pass runs every job of the workload once, split over PARTS fresh
interpreters (bench/worker.py) started one after another; each interpreter
sets up the whole workload, so one pass gives PARTS set-up samples.  With
``--trace 0`` passes repeat while the timed work so far plus one more pass
fits in ``--seconds`` (at least one pass).  With ``--trace 1`` the run makes
one untraced and one traced pass and reports the per-layer metrics of the
traced one.  Every operation's result is checked against an exact reference
outside the timed regions.

End-to-end metrics (``--trace 0``):
  wall_s       median over passes of the summed job latencies of one pass
  job_p50_ms   median latency of one job, over every job of every pass
  setup_s      median over interpreters of the time from starting the
               interpreter to the end of set-up (import, fields, fixtures)
  peak_rss_mb  largest peak RSS of a worker interpreter; for cli-warm, of a
               matgroups command it started
  fail_ratio   (failed + 1) / (attempted + 2) over the operations of one pass:
               the rule-of-succession failure rate, which stays above 0 so a
               relative bound applies after every known defect is fixed.
               The raw counts are the `attempted` and `failed` fields.

The three times are calibrated: each measured latency is multiplied by the
machine speed measured just before and after it, with a fixed kernel the
worker runs outside the timed regions (see speed() and worker.calibrate()).
They read as seconds on a machine running the kernel in CAL_REF_S.  The
report also prints the measured wall time of a pass and the speed.

Per-layer metrics (``--trace 1``) are totals over the traced pass, set-up
included, from spans the benchmark records around the program's functions
(tracer.py); ``trace.overhead_ratio`` is the traced pass's calibrated wall
time over the untraced one's.  Spans are written to bench/out/.

`correct` is false when a worker breaks, when the failed operations differ
between passes, or when an operation fails that is not in
refs/known_failures.json (the defects the program had when the benchmark
was written).  Known defects still count as failed operations.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics.  Lines before it are a human-readable report: a run header,
every metric with its unit, and every failed operation with its reason.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

PARTS = 3
RUN_DEADLINE_S = 170.0
# Seconds each part of the worker's calibration kernel takes at the
# reference speed.  Every reported time is the measured time multiplied by
# the machine speed measured next to it (see speed()), so the swings in CPU
# speed on a shared host, about +-30% over seconds to minutes, cancel out.
CAL_REF_S = (0.0016, 0.0012, 0.0030)


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def machine_header(seed: int) -> dict:
    def read(path):
        try:
            with open(path) as fh:
                return fh.read().strip()
        except OSError:
            return None

    cpu = next((line.split(":", 1)[1].strip() for line in (read("/proc/cpuinfo") or "").splitlines()
                if line.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind, size = read(f"{d}/level"), read(f"{d}/type"), read(f"{d}/size")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = size
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "matgroups", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas_threads": blas_threads(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import numpy  # noqa: F401  (loads the BLAS library)

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def run_share(req: dict, deadline: float) -> dict:
    env = dict(os.environ)
    env.pop("MATGROUPS_CACHE", None)
    req = dict(req, t_spawn=time.perf_counter())
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")],
                              input=json.dumps(req), capture_output=True, text=True, cwd=ROOT,
                              env=env, timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"worker for {req['workload']} part {req['part']} timed out") from e
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def speed(cal) -> float:
    """Machine speed against the reference: the geometric mean over the
    calibration kernel's parts of reference time over measured time."""
    return math.prod(ref / c for ref, c in zip(CAL_REF_S, cal)) ** (1 / len(cal))


def run_pass(base: dict, trace: bool, deadline: float) -> dict:
    shares = [run_share(dict(base, part=i, parts=PARTS, trace=trace), deadline)
              for i in range(PARTS)]
    jobs = [(seconds, seconds * speed(cal), n, failed)
            for s in shares for _, seconds, cal, n, failed in s["jobs"]]
    return {
        "raw_wall": sum(j[0] for j in jobs),
        "wall": sum(j[1] for j in jobs),
        "jobs": [j[1] for j in jobs],
        "speed": [speed(cal) for s in shares for _, _, cal, *_ in s["jobs"]],
        "setups": [s["setup_s"] * speed(s["setup_cal"]) for s in shares],
        "attempted": sum(j[2] for j in jobs),
        "failed": sorted(op for j in jobs for op in j[3]),
        "reasons": {k: v for s in shares for k, v in s["reasons"].items()},
        "peak_kb": max(s["peak_rss_kb"] for s in shares),
        "children_peak_kb": max(s["children_peak_rss_kb"] for s in shares),
        "traces": [s["trace"] for s in shares if s["trace"]],
    }


def fail_ratio(failed: int, attempted: int) -> float:
    """Rule-of-succession failure rate; above 0 even with no failures."""
    return (failed + 1) / (attempted + 2)


def summed_trace(traces) -> tuple:
    calls, self_s, counts = {}, {}, {}
    for t in traces:
        for src, dst in ((t["calls"], calls), (t["self_s"], self_s), (t["counts"], counts)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
    return calls, self_s, counts, sum(t["spans"] for t in traces)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "matgroups", "__init__.py")):
        sys.stderr.write(f"no program source under {ROOT}/src/matgroups\n")
        return 2
    deadline = time.perf_counter() + RUN_DEADLINE_S
    header = machine_header(args.seed)
    static = workloads.load_json("static.json")
    known = set(workloads.load_json("known_failures.json")["operations"])
    base = {"root": ROOT, "workload": args.workload, "seed": args.seed,
            "inputs": workloads.make_inputs(args.workload, args.seed, static)}
    del static
    out_dir = os.path.join(HERE, "out")
    try:
        passes = []
        if args.trace:
            passes = [run_pass(base, False, deadline), run_pass(base, True, deadline)]
        else:
            while True:
                passes.append(run_pass(base, False, deadline))
                done = sum(p["raw_wall"] for p in passes)
                last = passes[-1]["raw_wall"]
                if done + last > args.seconds or time.perf_counter() + 3 * last > deadline:
                    break
    except BenchError as e:
        sys.stderr.write(f"benchmark error: {e}\n")
        return 1
    finally:
        for tmp in glob.glob(os.path.join(out_dir, "tmp-*")):
            shutil.rmtree(tmp, ignore_errors=True)

    first = passes[0]
    steady = all(p["failed"] == first["failed"] and p["attempted"] == first["attempted"]
                 for p in passes)
    unknown = sorted(set(first["failed"]) - known)
    correct = steady and not unknown
    untraced = [p for p in passes if not p["traces"]]
    if args.trace:
        calls, self_s, counts, spans = summed_trace(passes[1]["traces"])
        metrics = tracer.layer_metrics(calls, self_s, counts, spans)
        metrics["trace.overhead_ratio"] = (passes[1]["wall"] / passes[0]["wall"], "ratio")
    else:
        peak_kb = max(p["children_peak_kb" if args.workload == "cli-warm" else "peak_kb"]
                      for p in passes)
        metrics = {
            "wall_s": (statistics.median(p["wall"] for p in untraced), "s"),
            "job_p50_ms": (1000 * statistics.median(s for p in untraced for s in p["jobs"]), "ms"),
            "setup_s": (statistics.median(s for p in passes for s in p["setups"]), "s"),
            "peak_rss_mb": (peak_kb / 1024, "MB"),
            "fail_ratio": (fail_ratio(len(first["failed"]), first["attempted"]), "ratio"),
        }

    print("header: " + json.dumps(header, sort_keys=True))
    raw = statistics.median(p["raw_wall"] for p in untraced)
    machine = statistics.median(x for p in passes for x in p["speed"])
    print(f"measured wall time of a pass: {raw:.4g} s; machine speed against the "
          f"reference: {machine:.3f} (median over jobs)")
    print(f"workload: {args.workload}  passes: {len(passes)}  interpreters per pass: {PARTS}  "
          f"jobs per pass: {len(first['jobs'])}  operations per pass: {first['attempted']}  "
          f"failed per pass: {len(first['failed'])}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    for op in first["failed"]:
        tag = "known" if op in known else "NEW"
        print(f"failed [{tag}] {op}: {first['reasons'].get(op, '')}")
    if not steady:
        print("passes disagree on which operations failed")
    result = {
        "correct": correct,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(len(p["failed"]) for p in passes),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
