"""One fresh interpreter running one share of a workload pass.

run.py starts this script once per share and writes a JSON request on its
stdin: workload, seed, inputs, share index and count, trace flag, checkout
root and the perf_counter reading taken just before the start.  The worker
imports the program from the checkout's ``src``, sets up the workload's
fixtures, runs its jobs one at a time with each job timed on its own, checks
every operation after the job's timer stops, and prints one JSON line.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import sys
import time


def main() -> int:
    req = json.load(sys.stdin)
    root, workload = req["root"], req["workload"]
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    if workload == "cli-warm":
        import matgroups.cli  # noqa: F401
    import matgroups
    import_s = time.perf_counter() - t0
    if not os.path.abspath(matgroups.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.stderr.write(f"matgroups imported from {matgroups.__file__}, not {src}\n")
        return 3

    import tracer as tracing
    import workloads

    tracer = None
    if req["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer, matgroups)
        tracer.active = True
    workdir = os.path.join(root, "bench", "out", f"tmp-{os.getpid()}")
    os.makedirs(workdir)
    try:
        state = workloads.SETUP[workload](req["inputs"], workdir)
        setup_end = time.perf_counter()
        if tracer:
            tracer.active = False
        setup_cal = calibrate()
        checker = workloads.Checker(workloads.load_json("static.json"),
                                    workloads.load_json("seeded.json").get(str(req["seed"])))
        if workload == "cli-warm":
            jobs = workloads.cli_jobs(req["inputs"], state, checker, in_process=bool(tracer))
        else:
            jobs = workloads.JOBS[workload](req["inputs"], state, checker)
        part, parts = req["part"], req["parts"]
        results, reasons = run_jobs(jobs, range(part, len(jobs), parts), tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out = {
        "setup_s": setup_end - req["t_spawn"],
        "setup_cal": setup_cal,
        "jobs": results,
        "reasons": reasons,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children_peak_rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "trace": None,
    }
    if tracer:
        if workload == "cli-warm":
            tracer.counts["cli.import_s"] += import_s
        tracer.write(os.path.join(root, "bench", "out",
                                  f"spans-{workload}-p{part}.npz"))
        out["trace"] = tracer.summary()
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


def run_jobs(jobs, indices, tracer=None) -> tuple[list, dict]:
    """Run the jobs at the given indices, each timed alone and checked after.

    Returns, per job, [name, seconds, calibration seconds, operations
    attempted, failed operations], and the reason for every failed
    operation.  The calibration is the mean time of the fixed kernel run just
    before and just after the job, a measure of the machine's speed then.
    """
    import workloads

    results, reasons = [], {}
    gc.collect()
    gc.freeze()  # the fixtures and references stay out of the timed collections
    cal_before = calibrate()
    for index in indices:
        job = jobs[index]
        rec = workloads.Recorder()
        gc.collect()
        if tracer:
            tracer.job = index
            tracer.active = True
        start = time.perf_counter()
        job.run(rec)
        seconds = time.perf_counter() - start
        if tracer:
            tracer.active = False
            _cli_counts(tracer, rec)
        cal_after = calibrate()
        ok = job.check(rec)
        failed = [op for op in job.ops if not ok.get(op, False)]
        for op in failed:
            reasons[op] = _reason(rec, op)
        cal = [(x + y) / 2 for x, y in zip(cal_before, cal_after)]
        results.append([job.name, seconds, cal, len(job.ops), failed])
        cal_before = calibrate()
    return results, reasons


_CAL_DATA = None


def calibrate() -> list[float]:
    """Seconds for a fixed kernel in three parts, one per kind of work the
    program does: Python loops over small tuples and sets, many numpy calls
    on tiny arrays, and numpy gathers on large int arrays."""
    import itertools

    import numpy as np

    global _CAL_DATA
    if _CAL_DATA is None:
        _CAL_DATA = (np.arange(4096) * 7919 % 4093, np.arange(1 << 16) * 31 % 4096,
                     np.arange(18).reshape(2, 3, 3) % 7)
    tab, idx, small = _CAL_DATA
    t0 = time.perf_counter()
    for c in itertools.combinations(range(19), 3):
        s = frozenset(c)
        sum(1 for a, b in itertools.combinations(c, 2) if (a * b + sum(s)) % 19 in s)
    t1 = time.perf_counter()
    for _ in range(300):
        (small[..., :, 1:2] * small[..., 1:2, :] + small) % 7
    t2 = time.perf_counter()
    for _ in range(2):
        np.bincount(tab[(idx + tab[idx]) % 4096] % 512)
    t3 = time.perf_counter()
    return [t1 - t0, t2 - t1, t3 - t2]


def _reason(rec, op: str) -> str:
    if op in rec.errors:
        return rec.errors[op]
    if op not in rec.values:
        return "not run"
    value = rec.values[op]
    if hasattr(value, "returncode"):
        return f"exit {value.returncode}: {value.stdout[-200:]}"
    return f"wrong value {value}" if isinstance(value, (int, bool)) else "wrong value"


def _cli_counts(tracer, rec) -> None:
    for proc in rec.values.values():
        if hasattr(proc, "returncode"):
            tracer.counts["cli.out_bytes"] += len(proc.stdout.encode())
            tracer.counts["cli.nonzero_exits"] += proc.returncode != 0


if __name__ == "__main__":
    sys.exit(main())
