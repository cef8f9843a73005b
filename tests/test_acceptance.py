"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Each criterion is exact or carries a frozen tolerance band; runtime limits
are asserted alongside the mathematical content.
"""

import itertools
import subprocess
import sys
import time

import numpy as np
import pytest

from matgroups import charbound, chartab, ff, homcount, matgrp, torsion, wordmap

# every buildable group context with |G| <= 200
SMALL_GROUPS = [
    ("SL", 2, 2),
    ("GL", 2, 2),
    ("SL", 2, 3),
    ("GL", 2, 3),
    ("SL", 2, 4),
    ("GL", 2, 4),
    ("SL", 2, 5),
    ("SL", 3, 2),
    ("GL", 3, 2),
]
SCAN_G2_MAX_ORDER = 100  # order^4 enumeration stays under the tuple budget


def _report(num: int, desc: str, ok: bool, t0: float, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}"
    line += f" ({time.perf_counter() - t0:.1f}s)"
    if detail:
        line += f" -- {detail}"
    print(line, flush=True)
    assert ok, line


def test_criterion_1_oracle_equivalence(group, table):
    t0 = time.perf_counter()
    mismatches = []
    for key in SMALL_GROUPS:
        ctx = group(*key)
        t = table(*key)
        name = f"{key[0]}{key[1]}(F_{key[2]})"

        oracle_comm = homcount.oracle_commutator_counts(ctx)
        for l in range(t.k):
            if homcount.commutator_count(t, l) != oracle_comm[l]:
                mismatches.append(f"{name} commutator class {l}")

        for g in (1, 2):
            formula = homcount.surface_hom_count(t, g)
            if formula != homcount.oracle_surface_count(ctx, g):
                mismatches.append(f"{name} surface g={g} vs convolution")
            if g == 1 or ctx.order <= SCAN_G2_MAX_ORDER:
                scan = homcount.hom_count_bruteforce(homcount.surface_presentation(g), ctx)
                if formula != scan:
                    mismatches.append(f"{name} surface g={g} vs scan")

        ident_class = int(ctx.class_of[ctx.identity_index])
        for m in (1, 2, 3):
            hist = homcount.oracle_squares_histogram(ctx, m)
            for c in ctx.classes:
                if homcount.fs_squares_count(t, m, c.index) != hist[c.rep_index]:
                    mismatches.append(f"{name} squares m={m} class {c.index}")
            scan = homcount.hom_count_bruteforce(homcount.squares_presentation(m), ctx)
            if homcount.fs_squares_count(t, m, ident_class) != scan:
                mismatches.append(f"{name} squares m={m} vs scan")

        if t.k**4 <= 10_000:
            quads = itertools.product(range(t.k), repeat=4)
        else:
            rng = np.random.default_rng(0)
            quads = [tuple(map(int, rng.integers(0, t.k, 4))) for _ in range(100)]
        for quad in quads:
            if homcount.quad_class_count(t, quad) != homcount.oracle_quad_count(
                ctx, quad
            ):
                mismatches.append(f"{name} quad {quad}")

    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 120
    _report(
        1,
        f"formula vs oracle, {len(SMALL_GROUPS)} groups with |G| <= 200",
        ok,
        t0,
        mismatches[0] if mismatches else "exact agreement",
    )


def test_criterion_2_frobenius_fiber_identity(group, table):
    t0 = time.perf_counter()
    ok = True
    details = []
    for q in (3, 5, 7):
        ctx = group("SL", 2, q)
        t = table("SL", 2, q)
        want = ctx.order * len(ctx.classes)
        ident_class = int(ctx.class_of[ctx.identity_index])
        formula = homcount.commutator_count(t, ident_class)
        ok = ok and formula == want
        details.append(f"q={q}: {formula}")
        if q == 3:
            scan = wordmap.fiber_count(homcount.parse_word("[x1,x2]"), ctx, ctx.identity)
            ok = ok and scan == want
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300
    _report(2, "fiber_count([x,y], I) = |G| * #classes, SL_2(F_{3,5,7})", ok, t0,
            ", ".join(details))


def test_criterion_3_surface_dimension_fit():
    t0 = time.perf_counter()
    prof = wordmap.dimension_estimate(
        homcount.surface_presentation(2), ("SL", 2), (3, 5, 7, 11, 13)
    )
    q13 = dict(prof.samples)[13]
    ratio = q13 / 13**9
    ok = (
        8.65 <= prof.fitted_dimension <= 9.35
        and 0.8 <= ratio <= 1.3
        and prof.method == "character-formula"
        and time.perf_counter() - t0 < 120
    )
    _report(3, "genus-2 SL_2 fit over q in {3..13}", ok, t0,
            f"dim={prof.fitted_dimension:.4f}, |Hom|/13^9={ratio:.4f}")


def test_criterion_4_zeta_trend(table):
    t0 = time.perf_counter()
    vals = [chartab.rep_zeta(table("SL", 2, q), 2.0) - 1.0 for q in (3, 5, 7, 11, 13)]
    decreasing = all(a > b for a, b in zip(vals, vals[1:]))
    ok = decreasing and vals[-1] < 0.2 and time.perf_counter() - t0 < 60
    _report(4, "zeta(2) - 1 strictly decreasing, < 0.2 at q=13", ok, t0,
            ", ".join(f"{v:.4f}" for v in vals))


def test_criterion_5_torsion_combinatorics():
    t0 = time.perf_counter()
    ok = True
    for ell in (7, 13, 19):
        ok = ok and len(torsion.torsion_classes("free-product", ell).representatives) == 2 * (ell - 1)
    # the quadrilateral family is defined from ell = 19 up
    ok = ok and len(torsion.torsion_classes("quadrilateral", 19).representatives) == 72

    witnesses = 0
    for ell in (7, 13, 19):
        for n in range(3, 41):
            for f in torsion.a_n(ell, n):
                w2 = torsion.decomposition_witness(ell, n, f, "cond2")
                ok = ok and w2.rebuild() == f
                witnesses += 1
                if n >= 4:
                    w3 = torsion.decomposition_witness(ell, n, f, "cond3")
                    ok = ok and w3.rebuild() == f
                    witnesses += 1

    chains = 0
    for n in range(2, 41):
        if n % 19 == 0:
            continue
        for f in torsion.a_n(19, n):
            rep = torsion.class_multiplicity_check(19, n, f)
            ok = ok and rep.within_ceiling
            if rep.chain_applicable:
                ok = ok and rep.chain_holds
                chains += 1
    ok = ok and chains > 0 and time.perf_counter() - t0 < 60
    _report(5, "torsion classes, witnesses, multiplicity chain", ok, t0,
            f"{witnesses} witnesses, {chains} chain checks")


def test_criterion_6_grassmannian_sweep():
    t0 = time.perf_counter()
    pairs = [
        (q, n)
        for n in range(1, 7)
        for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 37,
                  41, 43, 47, 49, 53, 59, 61, 64, 67, 71, 73, 79, 81)
        if q**n <= 81
    ]
    ok = True
    checks = 0
    for q, n in pairs:
        fld = ff.field_make_q(q)
        for _, T in charbound.semisimple_representatives(fld, n):
            for s in range(n + 1):
                formula = charbound.fixed_subspace_count(T, s)
                ok = ok and formula == charbound.fixed_subspace_bruteforce(T, s)
                ok = ok and charbound.fixed_subspace_bound_check(T, s).holds
                checks += 1
    ok = ok and time.perf_counter() - t0 < 180
    _report(6, "fixed-subspace formula vs brute force, q^n <= 81", ok, t0,
            f"{checks} (class, s) cases over {len(pairs)} fields")


def test_criterion_7_character_bound_trend(group, table):
    t0 = time.perf_counter()
    counts = []
    for q in (3, 5, 7, 11):
        rep = charbound.character_bound_check(
            group("GL", 2, q), table("GL", 2, q), 0.45, 0.99
        )
        counts.append(len(rep.violations))
    nonincreasing = all(a >= b for a, b in zip(counts, counts[1:]))
    ok = nonincreasing and counts[2] == 0 and counts[3] == 0
    ok = ok and time.perf_counter() - t0 < 120
    _report(7, "GL_2 bound violations nonincreasing, zero at q in {7,11}", ok, t0,
            f"violations={counts}")


def test_criterion_8_commutative_transitivity(group):
    t0 = time.perf_counter()
    ok = all(wordmap.commutative_transitivity_check(group("SL", 2, q)) for q in (3, 5, 7))

    # independent full scan over SL_2(F_3): every (a1, a2, b, c) with
    # [a1,b] = [a2,b] = 1 must satisfy [[a1,a2],[b,c]] = 1
    ctx = group("SL", 2, 3)
    N = ctx.order
    cay = np.empty((N, N), dtype=np.int64)
    for i in range(N):
        for j in range(N):
            cay[i, j] = ctx.index_of(ctx.element_at(i) @ ctx.element_at(j))
    inv = ctx.inv_idx
    comm = cay[cay[cay, inv[:, None]], inv[None, :]]
    ident = ctx.identity_index
    all_c = np.arange(N)
    constrained = 0
    for b in range(N):
        cent = np.nonzero(comm[:, b] == ident)[0]
        bc = comm[b, all_c]
        for a1 in cent:
            for a2 in cent:
                u = comm[a1, a2]
                constrained += N
                if not np.all(comm[u, bc] == ident):
                    ok = False
    ok = ok and time.perf_counter() - t0 < 180
    _report(8, "commutative transitivity + constrained 24^4 scan", ok, t0,
            f"{constrained} constrained tuples")


def test_criterion_9_worker_determinism():
    t0 = time.perf_counter()
    commands = [
        ["count", "homs", "--group", "SL2,q=3", "--generators", "2",
         "--relators", "[x1,x2]"],
        ["wordmap", "fiber", "--group", "SL2,q=3", "--word", "[x1,x2]"],
        ["verify"],
    ]
    ok = True
    for cmd in commands:
        outs = []
        for workers in ("1", "3"):
            proc = subprocess.run(
                [sys.executable, "-m", "matgroups.cli", *cmd, "--workers", workers],
                capture_output=True,
                check=True,
            )
            outs.append(proc.stdout)
        ok = ok and outs[0] == outs[1]
    _report(9, "byte-identical JSON across worker counts", ok, t0,
            f"{len(commands)} commands compared")
