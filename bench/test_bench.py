"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py

The end-to-end test runs every workload once traced and once untraced, so
this file takes a few minutes on two cores.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import refs  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads as W  # noqa: E402
from matgroups import chartab, ff, homcount, matgrp  # noqa: E402

SMALL = [g for g in W.FORMULA_GROUPS if matgrp.group_order(*g[:2], g[2]) <= 200]
INT64_SAFE = 2**62


def _ctx(kind, n, q):
    return matgrp.group_build(kind, n, ff.field_make_q(q))


@pytest.fixture(scope="module")
def static():
    return W.load_json("static.json")


@pytest.mark.parametrize("group", SMALL, ids=[W.key_of(*g) for g in SMALL])
def test_reference_route_matches_element_oracles(group, static):
    ctx = _ctx(*group)
    table = chartab.character_table(ctx, seed=0)
    ref = refs.group_references(ctx, table.degrees)
    assert ref == {k: v for k, v in static[W.key_of(*group)].items() if k in ref}

    assert ref["commutator"] == [int(v) for v in homcount.oracle_commutator_counts(ctx)]
    for g in (2, 3, 4):
        if ref["surface"][str(g)] < INT64_SAFE:
            assert homcount.oracle_surface_count(ctx, g) == ref["surface"][str(g)]
    for m in refs.SQUARE_TERMS:
        hist = homcount.oracle_squares_histogram(ctx, m)
        assert [int(hist[c.rep_index]) for c in ctx.classes] == ref["squares"][str(m)]
    hist = homcount.word_histogram(ctx, homcount.parse_word(W.SECOND_WORD))
    assert [int(hist[c.rep_index]) for c in ctx.classes] == ref["square_cube"]

    A = chartab.class_matrices(ctx)
    k = len(ctx.classes)
    for i, j in [(0, 0), (1, k - 1), (k - 1, k // 2)]:
        assert refs.pair_constants(ctx, i, j) == [int(v) for v in A[i, j, :]]
    for quad in [(0, 1, 2, 3), (k - 1, k - 1, 1, 2), (1, 1, 1, 1)]:
        quad = tuple(c % k for c in quad)
        assert refs.quad_reference(ctx, quad) == homcount.oracle_quad_count(ctx, quad)


def test_stored_seeded_references_match_class_algebra(static):
    seeded = W.load_json("seeded.json")
    ctxs = {W.key_of(*g): _ctx(*g) for g in W.FIBER_GROUPS + SMALL}
    for seed in ("0", "1"):
        for key, quads in seeded[seed].items():
            if key in ctxs:
                for classes, want in quads.items():
                    quad = [int(c) for c in classes.split(",")]
                    assert refs.quad_reference(ctxs[key], quad) == want, (seed, key, quad)


def test_torsion_and_grassmann_references(static):
    from matgroups import charbound, torsion

    for ell in (7, 13):
        assert [len(torsion.b_k(ell, k)) for k in range(ell)] == static["torsion"]["count"][str(ell)]
    fld = ff.field_make_q(3)
    for chosen, T in charbound.semisimple_representatives(fld, 2):
        blocks = [(len(f) - 1, mult) for f, mult in chosen]
        for s in range(3):
            assert refs.fixed_subspaces(3, blocks, s) == charbound.fixed_subspace_bruteforce(T, s)
    assert refs.semisimple_class_count(3, 2) == len(charbound.semisimple_representatives(fld, 2))


def test_wrong_reference_raises_fail_ratio_without_aborting(static):
    inputs = W.make_inputs("formula-sweep", 0, static)
    state = W.formula_setup(inputs, "")
    state["cache"] = None

    def failures(static_refs):
        checker = W.Checker(static_refs, None)
        jobs = [j for j in W.formula_jobs(inputs, state, checker)
                if j.name in ("SL2(F_3)", "GL2(F_3)")]
        results, _ = worker.run_jobs(jobs, range(len(jobs)))
        assert [r[0] for r in results] == ["SL2(F_3)", "GL2(F_3)"]
        attempted = sum(r[3] for r in results)
        return [op for r in results for op in r[4]], attempted

    good, attempted = failures(static)
    wrong = json.loads(json.dumps(static))
    wrong["SL2(F_3)"]["surface"]["2"] += 1
    bad, attempted_bad = failures(wrong)
    assert good == [] and bad == ["SL2(F_3) surface g=2"]
    assert attempted_bad == attempted
    assert run.fail_ratio(len(bad), attempted) > run.fail_ratio(len(good), attempted)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_every_named_metric_is_reported(workload):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert workload in [w["name"] for w in spec["workloads"]]
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                      "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in spec[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("--workload", "combinatorics", "--seed", "0", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
