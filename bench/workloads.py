"""The four workloads: seeded inputs, timed jobs and their exactness checks.

A job runs program operations through a Recorder, which keeps each value or
exception under the operation's name.  After the job's timer stops, its
check maps every operation name to pass/fail against an exact reference.
The operation names of a job are fixed before it runs, so an operation that
never returns still counts as attempted and failed.

The program is imported only inside jobs and setup, so the parent process
can build inputs without loading it.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys

import refs

WORKLOADS = ("formula-sweep", "scan-oracle", "combinatorics", "cli-warm")

HERE = os.path.dirname(os.path.abspath(__file__))
REFS_DIR = os.path.join(HERE, "refs")

FORMULA_GROUPS = (
    [("SL", 2, q) for q in (3, 5, 7, 9, 11, 13, 16, 17, 25, 27, 32, 37, 43)]
    + [("GL", 2, q) for q in (3, 4, 5, 7, 8, 9, 11)]
    + [("GL", 3, 2), ("SL", 3, 3)]
)
QUADS_PER_GROUP = 2
# GL2(F_7) sits below CAYLEY_LIMIT, SL2(F_13) above it
SCAN_GROUPS = [("SL", 2, 3), ("GL", 2, 3), ("SL", 2, 5), ("SL", 2, 7), ("GL", 2, 7), ("SL", 2, 13)]
FIBER_GROUPS = [("SL", 2, 7), ("GL", 2, 7), ("SL", 2, 13)]
# several cheap SL2(F_7) fibers give the job-latency median a dense band of
# jobs whose cost does not depend on the seed
FIBER_TARGETS = {("SL", 2, 7): 12, ("GL", 2, 7): 1, ("SL", 2, 13): 1}
ORACLE_SURFACE_GROUPS = [("SL", 2, 7), ("GL", 2, 7)]
DOUBLE_GROUPS = [("SL", 2, 3), ("GL", 2, 3), ("SL", 2, 5), ("SL", 2, 7)]
CT_GROUPS = [("SL", 2, 3), ("SL", 2, 5), ("SL", 2, 7)]
DOUBLE_WORDS = ("[x1,x2]", "x1 x2 x2")
SECOND_WORD = "x1 x1 x2 x2 x2"

WITNESS_SWEEP = [(7, n) for n in range(3, 41)] + [(13, n) for n in range(3, 41)]
# ell = 19 witnesses grow to thousands of classes per n; the cut-off keeps a
# pass near ten seconds on two cores
WITNESS_19_MAX_N = 6
MULTCHECK_NS = range(20, 29)
GRASSMANN_QN = [(q, n) for q in (2, 3, 4, 5) for n in range(2, 6) if q**n <= 32]

CLI_PREFILL = [("SL", 2, 43), ("SL", 2, 13), ("GL", 2, 7), ("GL", 2, 5),
               ("SL", 2, 3), ("SL", 2, 5), ("SL", 2, 7), ("GL", 2, 2), ("GL", 2, 3)]
CLI_TABLES = [("SL", 2, 43), ("SL", 2, 13), ("GL", 2, 7), ("GL", 2, 5),
              ("GL", 2, 2), ("SL", 2, 3), ("GL", 2, 3)]
VERIFY_CHECKS = 1426


def load_json(name: str):
    with open(os.path.join(REFS_DIR, name)) as fh:
        return json.load(fh)


key_of = refs.group_key


# ---------------------------------------------------------------------------
# seeded inputs (no program import)


def _draw_quad(rng, k: int) -> list[int]:
    return [rng.randrange(k) for _ in range(4)]


def _draw_target(rng, static, kind, n, q) -> dict:
    ref = static[key_of(kind, n, q)]
    s = rng.randrange(len(ref["reps"]))
    m = refs.random_conjugate(rng, kind, ref["reps"][s], q)
    return {"class": s, "rows": [list(m[:2]), list(m[2:])]}


def make_inputs(workload: str, seed: int, static: dict) -> dict:
    """Everything the seed decides: quad class tuples, fiber targets, table seed."""
    rng = random.Random(seed)
    if workload == "formula-sweep":
        return {
            "table_seed": rng.randrange(2**16),
            "quads": {
                key_of(*g): [_draw_quad(rng, len(static[key_of(*g)]["reps"]))
                             for _ in range(QUADS_PER_GROUP)]
                for g in FORMULA_GROUPS
            },
        }
    if workload == "scan-oracle":
        return {
            "targets": {key_of(*g): [_draw_target(rng, static, *g)
                                     for _ in range(FIBER_TARGETS[g])] for g in FIBER_GROUPS},
            "quads": {key_of(*g): _draw_quad(rng, len(static[key_of(*g)]["reps"]))
                      for g in FIBER_GROUPS},
        }
    if workload == "cli-warm":
        k = {g: len(static[key_of(*g)]["reps"]) for g in CLI_TABLES if key_of(*g) in static}
        return {
            "table_seed": rng.randrange(2**16),
            "comm_gl7": rng.randrange(k[("GL", 2, 7)]),
            "comm_sl43": rng.randrange(k[("SL", 2, 43)]),
            "sq_sl13": rng.randrange(k[("SL", 2, 13)]),
            "quad_sl13": _draw_quad(rng, k[("SL", 2, 13)]),
            "quad_gl7": _draw_quad(rng, k[("GL", 2, 7)]),
            "target_gl7": _draw_target(rng, static, "GL", 2, 7),
            "target_sl7": _draw_target(rng, static, "SL", 2, 7),
        }
    if workload == "combinatorics":
        return {}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# job plumbing


class Recorder:
    """Values and exceptions of the operations one job ran, by name."""

    def __init__(self):
        self.values: dict = {}
        self.errors: dict = {}

    def call(self, op: str, fn, *args, **kwargs):
        try:
            value = fn(*args, **kwargs)
        except Exception as e:  # an operation that raises is a failed operation
            self.errors[op] = f"{type(e).__name__}: {e}"
            return None
        self.values[op] = value
        return value


class Job:
    """name, the operation names it attempts, a timed run and an untimed check."""

    def __init__(self, name: str, ops, run, check):
        self.name = name
        self.ops = list(ops)
        self.run = run
        self.check = check


class Checker:
    """Reference lookups shared by the checks of one worker."""

    def __init__(self, static: dict, seeded: dict | None):
        self.static = static
        self.seeded = seeded or {}
        self._perm: dict = {}

    def perm(self, key: str, ctx):
        """Program class index of each stored class, or None when the
        program's classes do not match the stored ones one to one."""
        if key not in self._perm:
            ref = self.static[key]
            try:
                perm = refs.class_perm(ctx, ref)
            except Exception:
                perm = None
            if perm is not None and (
                sorted(perm) != list(range(len(ctx.classes)))
                or [ctx.classes[l].size for l in perm] != ref["sizes"]
                or [ctx.classes[l].element_order for l in perm] != ref["element_orders"]
            ):
                perm = None
            self._perm[key] = perm
        return self._perm[key]

    def per_class(self, key: str, ctx, values) -> dict | None:
        """Stored per-class values re-indexed by program class."""
        perm = self.perm(key, ctx)
        if perm is None:
            return None
        return {perm[s]: v for s, v in enumerate(values)}

    def quad(self, key: str, ctx, classes) -> int | None:
        perm = self.perm(key, ctx)
        if perm is None:
            return None
        stored = [perm.index(c) for c in classes]
        hit = self.seeded.get(key, {}).get(",".join(map(str, stored)))
        return hit if hit is not None else refs.quad_reference(ctx, classes)


def _field(q):
    from matgroups import ff

    return ff.field_make_q(q)


# ---------------------------------------------------------------------------
# formula-sweep


def formula_setup(inputs: dict, workdir: str) -> dict:
    return {"fields": {q: _field(q) for q in sorted({g[2] for g in FORMULA_GROUPS})},
            "cache": os.path.join(workdir, "cache")}


def formula_jobs(inputs: dict, state: dict, checker: Checker) -> list[Job]:
    from matgroups import chartab, homcount, matgrp

    jobs = []
    for kind, n, q in FORMULA_GROUPS:
        key = key_of(kind, n, q)
        ref = checker.static[key]
        k = len(ref["reps"])
        quads = inputs["quads"][key]
        ops = ([f"{key} group_build", f"{key} conjugacy_classes", f"{key} character_table"]
               + [f"{key} surface g={g}" for g in refs.GENERA]
               + [f"{key} commutator class {l}" for l in range(k)]
               + [f"{key} squares m={m} class {l}" for m in refs.SQUARE_TERMS for l in range(k)]
               + [f"{key} quad {tuple(c)}" for c in quads])

        def run(rec, kind=kind, n=n, q=q, key=key, k=k, quads=quads):
            ctx = rec.call(f"{key} group_build", matgrp.group_build, kind, n,
                           state["fields"][q], cache_dir=state["cache"])
            if ctx is None:
                return
            rec.call(f"{key} conjugacy_classes", matgrp.conjugacy_classes, ctx)
            table = rec.call(f"{key} character_table", chartab.character_table, ctx,
                             seed=inputs["table_seed"])
            if table is None:
                return
            for g in refs.GENERA:
                rec.call(f"{key} surface g={g}", homcount.surface_hom_count, table, g)
            for l in range(k):
                rec.call(f"{key} commutator class {l}", homcount.commutator_count, table, l)
            for m in refs.SQUARE_TERMS:
                for l in range(k):
                    rec.call(f"{key} squares m={m} class {l}",
                             homcount.fs_squares_count, table, m, l)
            for c in quads:
                rec.call(f"{key} quad {tuple(c)}", homcount.quad_class_count, table, c)

        def check(rec, key=key, ref=ref, quads=quads):
            v = rec.values
            ctx = v.get(f"{key} group_build")
            out = {}
            if ctx is None:
                return out
            out[f"{key} group_build"] = ctx.order == ref["order"]
            out[f"{key} conjugacy_classes"] = (
                f"{key} conjugacy_classes" in v and checker.perm(key, ctx) is not None)
            table = v.get(f"{key} character_table")
            out[f"{key} character_table"] = (
                table is not None and sorted(table.degrees) == ref["degrees"])
            for g in refs.GENERA:
                out[f"{key} surface g={g}"] = v.get(f"{key} surface g={g}") == ref["surface"][str(g)]
            comm = checker.per_class(key, ctx, ref["commutator"]) or {}
            for l, want in comm.items():
                out[f"{key} commutator class {l}"] = v.get(f"{key} commutator class {l}") == want
            for m in refs.SQUARE_TERMS:
                sq = checker.per_class(key, ctx, ref["squares"][str(m)]) or {}
                for l, want in sq.items():
                    op = f"{key} squares m={m} class {l}"
                    out[op] = v.get(op) == want
            for c in quads:
                op = f"{key} quad {tuple(c)}"
                out[op] = op in v and v[op] == checker.quad(key, ctx, c)
            return out

        jobs.append(Job(key, ops, run, check))
    return jobs


# ---------------------------------------------------------------------------
# scan-oracle


def scan_setup(inputs: dict, workdir: str) -> dict:
    from matgroups import matgrp

    ctxs = {}
    for kind, n, q in SCAN_GROUPS:
        ctx = matgrp.group_build(kind, n, _field(q))
        ctx.classes, ctx.inv_idx  # noqa: B018  (classes and inverses belong to the fixture)
        ctxs[key_of(kind, n, q)] = ctx
    return {"ctxs": ctxs}


def _class_function_ok(checker, key, ctx, hist, values) -> bool:
    """A per-element histogram equals the stored per-class values."""
    import numpy as np

    want = checker.per_class(key, ctx, values)
    if want is None or hist is None or len(hist) != ctx.order:
        return False
    expect = np.array([want[l] for l in range(len(ctx.classes))], dtype=object)[ctx.class_of]
    return all(int(a) == int(b) for a, b in zip(hist, expect))


def scan_jobs(inputs: dict, state: dict, checker: Checker) -> list[Job]:
    from matgroups import homcount, matgrp, wordmap

    ctxs = state["ctxs"]
    S = checker.static
    jobs = []

    def add(name, value_fn, expect_fn):
        def run(rec):
            rec.call(name, value_fn)

        def check(rec):
            return {name: name in rec.values and expect_fn(rec.values[name])}

        jobs.append(Job(name, [name], run, check))

    pres = homcount.surface_presentation(2)
    for g in [("SL", 2, 3), ("GL", 2, 3)]:
        key = key_of(*g)
        add(f"{key} hom_count_bruteforce genus 2",
            lambda ctx=ctxs[key]: homcount.hom_count_bruteforce(pres, ctx),
            lambda got, key=key: got == S[key]["surface"]["2"])
    comm_word = homcount.parse_word("[x1,x2]")
    for g in FIBER_GROUPS:
        key = key_of(*g)
        ctx = ctxs[key]
        for i, tgt in enumerate(inputs["targets"][key]):
            add(f"{key} fiber [x1,x2] #{i} class {tgt['class']}",
                lambda ctx=ctx, tgt=tgt: wordmap.fiber_count(
                    comm_word, ctx, matgrp.matrix_element(ctx.field, tgt["rows"])),
                lambda got, key=key, tgt=tgt: got == S[key]["commutator"][tgt["class"]])
    second = homcount.parse_word(SECOND_WORD)
    for g in FIBER_GROUPS:
        key = key_of(*g)
        add(f"{key} word_histogram {SECOND_WORD}",
            lambda ctx=ctxs[key]: homcount.word_histogram(ctx, second),
            lambda got, key=key: _class_function_ok(
                checker, key, ctxs[key], got, S[key]["square_cube"]))
    for g in ORACLE_SURFACE_GROUPS:
        key = key_of(*g)
        for genus in (2, 3, 4):
            add(f"{key} oracle_surface_count g={genus}",
                lambda ctx=ctxs[key], genus=genus: homcount.oracle_surface_count(ctx, genus),
                lambda got, key=key, genus=genus: got == S[key]["surface"][str(genus)])
    for g in FIBER_GROUPS:
        key = key_of(*g)
        add(f"{key} oracle_squares_histogram m=3",
            lambda ctx=ctxs[key]: homcount.oracle_squares_histogram(ctx, 3),
            lambda got, key=key: _class_function_ok(
                checker, key, ctxs[key], got, S[key]["squares"]["3"]))
    for g in FIBER_GROUPS:
        key = key_of(*g)
        quad = inputs["quads"][key]
        add(f"{key} oracle_quad_count {tuple(quad)}",
            lambda ctx=ctxs[key], quad=quad: homcount.oracle_quad_count(ctx, quad),
            lambda got, key=key, quad=quad: got == checker.quad(key, ctxs[key], quad))
    w1, w2 = (homcount.parse_word(w) for w in DOUBLE_WORDS)
    for g in DOUBLE_GROUPS:
        key = key_of(*g)
        add(f"{key} double_word_stats",
            lambda ctx=ctxs[key]: wordmap.double_word_stats(w1, w2, ctx)[0],
            lambda got, key=key: got == S[key]["double_image"])
    for g in CT_GROUPS:
        key = key_of(*g)
        add(f"{key} commutative_transitivity_check",
            lambda ctx=ctxs[key]: wordmap.commutative_transitivity_check(ctx),
            lambda got, key=key: got is S[key]["commutative_transitive"])
    return jobs


# ---------------------------------------------------------------------------
# combinatorics


def combinatorics_setup(inputs: dict, workdir: str) -> dict:
    return {}


def _witness_job(ell: int, n: int, bk_count: dict) -> Job:
    from matgroups import torsion

    name = f"witness l={ell} n={n}"
    count = bk_count[str(ell)][n % ell]
    modes = ("cond2", "cond3") if n >= 4 else ("cond2",)
    ops = [f"{name} a_n"] + [f"{name} {mode} #{i}" for i in range(count) for mode in modes]

    def run(rec):
        funcs = rec.call(f"{name} a_n", torsion.a_n, ell, n) or []
        for i, f in enumerate(funcs[:count]):
            for mode in modes:
                rec.call(f"{name} {mode} #{i}", torsion.decomposition_witness, ell, n, f, mode)

    def check(rec):
        funcs = rec.values.get(f"{name} a_n") or []
        vals = [f.values for f in funcs]
        out = {f"{name} a_n": len(set(vals)) == count == len(vals)
               and all(refs.in_an(ell, n, v) for v in vals)}
        for i, f in enumerate(vals[:count]):
            w = rec.values.get(f"{name} cond2 #{i}")
            out[f"{name} cond2 #{i}"] = w is not None and refs.check_cond2(
                ell, n, f, w.f_prime.values, w.shift, w.singleton)
            if "cond3" in modes:
                w = rec.values.get(f"{name} cond3 #{i}")
                out[f"{name} cond3 #{i}"] = w is not None and refs.check_cond3(
                    ell, n, f, w.f1.values, w.f2.values, w.shift1, w.shift2)
        return out

    return Job(name, ops, run, check)


def _multcheck_job(n: int, bk_count: dict) -> Job:
    from matgroups import torsion

    ell = 19
    name = f"multcheck l={ell} n={n}"
    count = bk_count[str(ell)][n % ell]
    ops = [f"{name} a_n"] + [f"{name} #{i}" for i in range(count)]

    def run(rec):
        funcs = rec.call(f"{name} a_n", torsion.a_n, ell, n) or []
        for i, f in enumerate(funcs[:count]):
            rec.call(f"{name} #{i}", torsion.class_multiplicity_check, ell, n, f)

    def check(rec):
        funcs = rec.values.get(f"{name} a_n") or []
        out = {f"{name} a_n": len(funcs) == count}
        for i, f in enumerate(funcs[:count]):
            r = rec.values.get(f"{name} #{i}")
            out[f"{name} #{i}"] = r is not None and (
                r.max_multiplicity, r.ceiling, r.within_ceiling, r.chain_applicable,
                r.chain_holds) == refs.multiplicity_report(ell, n, f.values)
        return out

    return Job(name, ops, run, check)


def _bk_job(k: int, bk: dict) -> Job:
    from matgroups import torsion

    name = f"b_k l=19 k={k}"

    def run(rec):
        rec.call(name, torsion.b_k, 19, k)

    def check(rec):
        got = rec.values.get(name)
        return {name: got is not None and len(got) == bk["count"]["19"][k]
                and refs.bk_digest(got) == bk["digest19"][k]}

    return Job(name, [name], run, check)


def _torsion_classes_job() -> Job:
    from matgroups import torsion

    cases = [("free-product", 7), ("free-product", 13), ("free-product", 19),
             ("quadrilateral", 19)]
    names = [f"torsion_classes {kind} l={ell}" for kind, ell in cases]

    def run(rec):
        for op, (kind, ell) in zip(names, cases):
            rec.call(op, torsion.torsion_classes, kind, ell)

    def check(rec):
        out = {}
        for op, (kind, ell) in zip(names, cases):
            labels = ("g1", "g2") if kind == "free-product" else ("x", "y", "z", "t")
            got = rec.values.get(op)
            out[op] = got is not None and list(got.representatives) == [
                (lab, e) for lab in labels for e in range(1, ell)]
        return out

    return Job("torsion_classes", names, run, check)


def _grassmann_job(q: int, n: int, ss_count: dict) -> Job:
    from matgroups import charbound

    name = f"grassmann q={q} n={n}"
    count = ss_count[f"{q},{n}"]
    ops = [f"{name} semisimple_representatives"] + [
        f"{name} T#{i} s={s} {what}" for i in range(count) for s in range(n + 1)
        for what in ("count", "bruteforce", "bound")]

    def run(rec):
        reps = rec.call(f"{name} semisimple_representatives",
                        charbound.semisimple_representatives, _field(q), n) or []
        for i, (_, T) in enumerate(reps[:count]):
            for s in range(n + 1):
                rec.call(f"{name} T#{i} s={s} count", charbound.fixed_subspace_count, T, s)
                rec.call(f"{name} T#{i} s={s} bruteforce",
                         charbound.fixed_subspace_bruteforce, T, s)
                rec.call(f"{name} T#{i} s={s} bound",
                         charbound.fixed_subspace_bound_check, T, s)

    def check(rec):
        reps = rec.values.get(f"{name} semisimple_representatives") or []
        out = {f"{name} semisimple_representatives": len(reps) == count}
        for i, (chosen, _) in enumerate(reps[:count]):
            blocks = [(len(f) - 1, mult) for f, mult in chosen]
            for s in range(n + 1):
                want = refs.fixed_subspaces(q, blocks, s)
                base = f"{name} T#{i} s={s}"
                out[f"{base} count"] = rec.values.get(f"{base} count") == want
                out[f"{base} bruteforce"] = rec.values.get(f"{base} bruteforce") == want
                bound = rec.values.get(f"{base} bound")
                out[f"{base} bound"] = bound is not None and bound.count == want
        return out

    return Job(name, ops, run, check)


def combinatorics_jobs(inputs: dict, state: dict, checker: Checker) -> list[Job]:
    tor = checker.static["torsion"]
    jobs = [_witness_job(ell, n, tor["count"]) for ell, n in WITNESS_SWEEP]
    jobs += [_witness_job(19, n, tor["count"]) for n in range(3, WITNESS_19_MAX_N + 1)]
    jobs += [_multcheck_job(n, tor["count"]) for n in MULTCHECK_NS]
    jobs += [_bk_job(k, tor) for k in range(19)]
    jobs.append(_torsion_classes_job())
    jobs += [_grassmann_job(q, n, checker.static["semisimple_classes"]) for q, n in GRASSMANN_QN]
    return jobs


# ---------------------------------------------------------------------------
# cli-warm


def cli_setup(inputs: dict, workdir: str) -> dict:
    """Fill a cache for every group and table the commands read."""
    from matgroups import chartab, matgrp

    cache = os.path.join(workdir, "cache")
    ctxs = {}
    for kind, n, q in CLI_PREFILL:
        ctx = matgrp.group_build(kind, n, _field(q), cache_dir=cache)
        ctx.classes  # noqa: B018  (computing classes writes the group cache)
        if (kind, n, q) in CLI_TABLES:
            chartab.character_table(ctx, seed=inputs["table_seed"], cache_dir=cache)
        ctxs[key_of(kind, n, q)] = ctx
    return {"cache": cache, "ctxs": ctxs}


def _rows(target) -> str:
    return ";".join(",".join(str(v) for v in row) for row in target["rows"])


def cli_commands(inputs: dict) -> list[tuple[list[str], int]]:
    """(argv, expected exit code) for every command of the workload."""
    seed = ["--seed", str(inputs["table_seed"])]
    quad13 = ",".join(map(str, inputs["quad_sl13"]))
    quad7 = ",".join(map(str, inputs["quad_gl7"]))
    return [
        (["group", "--group", "SL2,q=43"], 0),
        (["chartable", "--group", "SL2,q=13", *seed], 0),
        (["chartable", "--group", "GL2,q=5", *seed], 0),
        (["count", "surface", "--group", "SL2,q=43", "--genus", "2", *seed], 0),
        (["count", "surface", "--group", "SL2,q=13", "--genus", "2", *seed], 0),
        (["count", "surface", "--group", "GL2,q=7", "--genus", "3", *seed], 0),
        (["count", "commutator", "--group", "GL2,q=7", "--class-index",
          str(inputs["comm_gl7"]), *seed], 0),
        (["count", "commutator", "--group", "SL2,q=43", "--class-index",
          str(inputs["comm_sl43"]), *seed], 0),
        (["count", "squares", "--group", "SL2,q=13", "--m-terms", "3", "--class-index",
          str(inputs["sq_sl13"]), *seed], 0),
        (["count", "quad", "--group", "SL2,q=13", "--classes", quad13, *seed], 0),
        (["count", "quad", "--group", "GL2,q=7", "--classes", quad7, *seed], 0),
        (["count", "homs", "--group", "SL2,q=3", "--generators", "4",
          "--relators", "[x1,x2][x3,x4]"], 0),
        (["wordmap", "fiber", "--group", "GL2,q=7", "--word", "[x1,x2]",
          "--target", _rows(inputs["target_gl7"])], 0),
        (["wordmap", "fiber", "--group", "SL2,q=7", "--word", "[x1,x2]",
          "--target", _rows(inputs["target_sl7"])], 0),
        (["wordmap", "dimension", "--family", "SL2", "--qs", "3,5,7", "--generators", "2",
          "--relators", "x1 x2 x1 x2"], 0),
        (["torsion", "witness", "--l", "13", "--n", "20", "--mode", "cond3"], 0),
        (["torsion", "witness", "--l", "19", "--n", "6", "--mode", "cond2"], 0),
        (["charbound", "bound", "--group", "GL2,q=5", "--alpha", "0.2", "--beta", "0.9",
          *seed], 0),
        (["verify", *seed], 0),
        (["count", "surface", "--group", "SL2,q=6", "--genus", "2"], 2),
    ]


def _multiset_rows(ref) -> list:
    return sorted(zip(ref["sizes"], ref["element_orders"]))


def cli_expect(argv, inputs: dict, checker: Checker, ctxs: dict):
    """A predicate on the parsed `result` object of one command."""
    S = checker.static
    sub = argv[0] if argv[0] not in ("count", "wordmap", "torsion", "charbound") else \
        f"{argv[0]} {argv[1]}"
    opt = {argv[i]: argv[i + 1] for i in range(len(argv) - 1) if argv[i].startswith("--")}
    key = None
    if "--group" in opt:
        kind, rest = opt["--group"][:2], opt["--group"][2:]
        n, q = rest.split(",q=")
        key = key_of(kind, int(n), int(q))

    def per_class(values, idx):
        m = checker.per_class(key, ctxs[key], values)
        return None if m is None else m.get(int(idx))

    if sub == "group":
        ref = S[key]
        return lambda r: (r["order"] == ref["order"] and r["classes"] == len(ref["reps"])
                          and sorted((x["size"], x["element_order"]) for x in r["rows"])
                          == _multiset_rows(ref)
                          and all(x["centralizer"] * x["size"] == ref["order"] for x in r["rows"]))
    if sub == "chartable":
        ref = S[key]
        return lambda r: (r["order"] == ref["order"] and r["num_classes"] == len(ref["reps"])
                          and sorted(r["degrees"]) == ref["degrees"]
                          and sorted(zip(r["class_sizes"], r["class_element_orders"]))
                          == _multiset_rows(ref))
    if sub == "count surface":
        want = S[key]["surface"][opt["--genus"]]
        return lambda r: r["count"] == want
    if sub == "count commutator":
        return lambda r: r["count"] == per_class(S[key]["commutator"], opt["--class-index"])
    if sub == "count squares":
        return lambda r: r["count"] == per_class(S[key]["squares"][opt["--m-terms"]],
                                                 opt["--class-index"])
    if sub == "count quad":
        classes = [int(c) for c in opt["--classes"].split(",")]
        return lambda r: r["count"] == checker.quad(key, ctxs[key], classes)
    if sub == "count homs":
        return lambda r: r["count"] == S[key]["surface"]["2"]
    if sub == "wordmap fiber":
        tgt = inputs["target_gl7" if key.startswith("GL") else "target_sl7"]
        return lambda r: r["count"] == S[key]["commutator"][tgt["class"]]
    if sub == "wordmap dimension":
        want = []
        for q in (3, 5, 7):
            ref = S[key_of("SL", 2, q)]
            ident = ref["element_orders"].index(1)
            want.append([q, ref["order"] * ref["squares"]["1"][ident]])
        return lambda r: r["samples"] == want
    if sub == "torsion witness":
        ell, n, mode = int(opt["--l"]), int(opt["--n"]), opt["--mode"]
        count = S["torsion"]["count"][str(ell)][n % ell]

        def witness_ok(r):
            if r["count"] != count or len(r["rows"]) != count:
                return False
            for row in r["rows"]:
                if mode == "cond2":
                    ok = refs.check_cond2(ell, n, row["f"], row["f_prime"], row["shift"],
                                          row["singleton"])
                else:
                    ok = refs.check_cond3(ell, n, row["f"], row["f1"], row["f2"],
                                          row["shift1"], row["shift2"])
                if not (ok and refs.in_an(ell, n, row["f"]) and row["rebuilds"] is True):
                    return False
            return len({tuple(row["f"]) for row in r["rows"]}) == count

        return witness_ok
    if sub == "charbound bound":
        q = int(opt["--group"].split("q=")[1])
        # gate max(1, alpha*n) = 1 keeps the regular semisimple classes:
        # split ones with distinct eigenvalues plus elliptic ones
        regular = math.comb(q - 1, 2) + (q * q - q) // 2
        return lambda r: r["group"] == f"GL2(F_{q})" and len(r["rows"]) == regular
    if sub == "verify":
        return lambda r: r["checks"] == VERIFY_CHECKS and r["mismatches"] == 0
    raise ValueError(f"no reference for command {argv}")


def cli_jobs(inputs: dict, state: dict, checker: Checker, in_process: bool = False) -> list[Job]:
    jobs = []
    root = os.path.dirname(HERE)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    env.pop("MATGROUPS_CACHE", None)
    for argv, code in cli_commands(inputs):
        shown = [a for i, a in enumerate(argv) if "--seed" not in argv[max(i - 1, 0):i + 1]]
        name = "cli " + " ".join(shown)
        argv = [*argv, "--cache", state["cache"]] if code == 0 else argv

        def run(rec, argv=argv, name=name):
            if in_process:
                rec.call(name, run_cli_in_process, argv)
            else:
                rec.call(name, subprocess.run, [sys.executable, "-m", "matgroups.cli", *argv],
                         capture_output=True, text=True, env=env, cwd=root, timeout=120)

        def check(rec, argv=argv, code=code, name=name):
            proc = rec.values.get(name)
            if proc is None or proc.returncode != code:
                return {name: False}
            if code != 0:
                return {name: proc.stdout == ""}
            try:
                result = json.loads(proc.stdout)["result"]
                ok = bool(cli_expect(argv, inputs, checker, state["ctxs"])(result))
            except (ValueError, KeyError, TypeError):
                ok = False
            return {name: ok}

        jobs.append(Job(name, [name], run, check))
    return jobs


class _Completed:
    """The parts of subprocess.CompletedProcess the checks read."""

    def __init__(self, returncode: int, stdout: str):
        self.returncode = returncode
        self.stdout = stdout


def run_cli_in_process(argv) -> _Completed:
    import contextlib
    import io

    from matgroups import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as e:  # argparse reports usage errors by exiting
            code = e.code if isinstance(e.code, int) else 2
    return _Completed(code, out.getvalue())


SETUP = {"formula-sweep": formula_setup, "scan-oracle": scan_setup,
         "combinatorics": combinatorics_setup, "cli-warm": cli_setup}
JOBS = {"formula-sweep": formula_jobs, "scan-oracle": scan_jobs,
        "combinatorics": combinatorics_jobs, "cli-warm": cli_jobs}
