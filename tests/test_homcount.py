"""Word parsing, scan kernels, exact oracles, character-sum counting formulas."""

import dataclasses
import itertools
from fractions import Fraction

import numpy as np
import pytest

from matgroups import ff, homcount, matgrp
from matgroups.errors import BadRange, BudgetExceeded, CertificateError, RoundingFailure
from matgroups.homcount import Presentation, Word, parse_word

# GL_2(F_2) is S_3; counts below were first computed by hand on S_3 and frozen
S3_SQUARE_COUNTS = {1: 4, 2: 18, 3: 90}  # tuples with x1^2 ... xm^2 = 1
S3_COMMUTING_PAIRS = 18  # |G| * #classes
S3_SURFACE_G2 = 486
S3_QUAD_TRANSPOSITIONS = 27


def test_parse_and_free_reduction():
    w = parse_word("x1 x2 X2 x3")
    assert w.letters == ((1, 1), (3, 1))
    assert parse_word("x1 X1").letters == ()
    assert str(parse_word("x1 X2")) == "x1 X2"


def test_commutator_brackets_expand():
    w = parse_word("[x1,x2]")
    assert w.letters == ((1, 1), (2, 1), (1, -1), (2, -1))
    nested = parse_word("[[x1,x2],x3]")
    inner = parse_word("x1 x2 X1 X2")
    expected = inner * Word(((3, 1),)) * inner.inverse() * Word(((3, -1),))
    assert nested == expected


def test_word_inverse_and_product():
    w = parse_word("x1 x2")
    assert (w * w.inverse()).letters == ()
    assert w.inverse().letters == ((2, -1), (1, -1))
    assert w.max_gen == 2


def test_parse_rejects_junk():
    for bad in ("x", "y1", "x1 + x2", "[x1 x2]", "[x1,x2", "x1]"):
        with pytest.raises(BadRange):
            parse_word(bad)


def test_presentation_validates_generator_use():
    with pytest.raises(BadRange):
        Presentation(1, ("x2",))
    pres = Presentation(2, ("[x1,x2]",))
    assert pres.relators[0].max_gen == 2


def test_surface_and_squares_presentations_recognized():
    for g in (1, 2, 3):
        pres = homcount.surface_presentation(g)
        assert pres.generators == 2 * g
        assert homcount.recognize_surface_genus(pres) == g
        assert homcount.recognize_squares_m(pres) is None
    for m in (1, 2, 4):
        pres = homcount.squares_presentation(m)
        assert homcount.recognize_squares_m(pres) == m
        assert homcount.recognize_surface_genus(pres) is None


def _naive_histogram(ctx, word, assignments):
    hist = np.zeros(ctx.order, dtype=np.int64)
    for combo in assignments:
        acc = ctx.identity
        for g, s in word.letters:
            e = ctx.element_at(combo[g - 1])
            acc = acc @ (e if s > 0 else matgrp.mat_inv(e))
        hist[ctx.index_of(acc)] += 1
    return hist


@pytest.mark.parametrize("text", ["x1 x1", "x1 x2 x1", "[x1,x2]", "X1 x2 X1"])
def test_word_histogram_matches_naive(group, text):
    ctx = group("GL", 2, 2)
    w = parse_word(text)
    got = homcount.word_histogram(ctx, w)
    combos = itertools.product(range(ctx.order), repeat=w.max_gen)
    assert np.array_equal(got, _naive_histogram(ctx, w, combos))


def test_word_histogram_worker_invariance(group):
    ctx = group("SL", 2, 3)
    w = parse_word("[x1,x2]")
    assert homcount.word_histogram(ctx, w)[ctx.identity_index] == 168


def test_block_split_word_histogram_uniform(group):
    # |G| = 48 puts x2, x3 in each block and leaves x1 a scalar: one block per
    # class representative of x1, 8 in all
    ctx = group("GL", 2, 3)
    assert 48**2 <= homcount.SCAN_BLOCK < 48**3
    hist = homcount.word_histogram(ctx, parse_word("x1 x2 x3"))
    assert (hist == 48**2).all()


def test_block_split_relator_on_scalar_generator(group):
    # the first relator uses only x1, the scalar generator of each block
    ctx = group("GL", 2, 3)
    pres = Presentation(3, ("x1 x1 x1", "[x2,x3]"))
    cubes = homcount.word_histogram(ctx, parse_word("x1 x1 x1"))[ctx.identity_index]
    assert homcount.hom_count_bruteforce(pres, ctx) == cubes * ctx.order * len(ctx.classes)


def test_empty_word_histogram(group):
    ctx = group("GL", 2, 2)
    h = homcount.word_histogram(ctx, Word(()))
    assert h[ctx.identity_index] == 1
    assert h.sum() == 1


def test_hom_count_free_group(group):
    ctx = group("SL", 2, 3)
    assert homcount.hom_count_bruteforce(Presentation(0, ()), ctx) == 1
    assert homcount.hom_count_bruteforce(Presentation(2, ()), ctx) == 24**2


def test_hom_count_eliminable_relator(group):
    # the last letter of "x1 x2" uses x2 exactly once, so x2 is determined
    ctx = group("SL", 2, 3)
    assert homcount.hom_count_bruteforce(Presentation(2, ("x1 x2",)), ctx) == 24


def test_hom_count_scan_path(group):
    ctx = group("SL", 2, 3)
    pres = Presentation(2, ("[x1,x2]",))
    assert homcount.hom_count_bruteforce(pres, ctx) == S3_COMMUTING_PAIRS // 18 * 168


def test_hom_count_two_relators(group):
    # <x | x^2, x^3> forces x = 1 in any group
    ctx = group("GL", 2, 2)
    pres = Presentation(1, ("x1 x1", "x1 x1 x1"))
    assert homcount.hom_count_bruteforce(pres, ctx) == 1


def test_tuple_budget(group):
    ctx = group("SL", 2, 3)
    with pytest.raises(BudgetExceeded):
        homcount.hom_count_bruteforce(Presentation(6, ("[x1,x6]",)), ctx)


def test_commutator_histogram_small(group):
    ctx = group("GL", 2, 2)
    hist = homcount.commutator_histogram(ctx)
    assert hist.sum() == ctx.order**2
    assert hist[ctx.identity_index] == S3_COMMUTING_PAIRS


def test_squaring_histogram(group):
    ctx = group("GL", 2, 2)
    sq = homcount.squaring_histogram(ctx)
    assert sq.sum() == ctx.order
    assert sq[ctx.identity_index] == S3_SQUARE_COUNTS[1]
    ctx3 = group("SL", 2, 3)
    assert homcount.squaring_histogram(ctx3)[ctx3.identity_index] == 2


def test_element_convolution_matches_naive(group):
    ctx = group("GL", 2, 2)
    rng = np.random.default_rng(7)
    f = rng.integers(0, 5, ctx.order)
    g = rng.integers(0, 5, ctx.order)
    conv = homcount.element_convolution(ctx, f, g)
    naive = np.zeros(ctx.order, dtype=np.int64)
    for u in range(ctx.order):
        for v in range(ctx.order):
            naive[ctx.index_of(ctx.element_at(u) @ ctx.element_at(v))] += f[u] * g[v]
    assert np.array_equal(conv, naive)


def test_oracle_surface_counts(group):
    ctx = group("GL", 2, 2)
    assert homcount.oracle_surface_count(ctx, 1) == S3_COMMUTING_PAIRS
    assert homcount.oracle_surface_count(ctx, 2) == S3_SURFACE_G2
    ctx3 = group("SL", 2, 3)
    assert homcount.oracle_surface_count(ctx3, 2) == 53376


def test_oracle_surface_count_exact_above_int64(group, table):
    # the genus-6 count of SL_2(F_5) is about 7.4e22, far past int64
    ctx, t = group("SL", 2, 5), table("SL", 2, 5)
    want = sum(Fraction(ctx.order**11, d**10) for d in t.degrees)
    assert want > 2**63
    assert homcount.oracle_surface_count(ctx, 6) == want


def test_oracle_squares_histogram(group):
    ctx = group("GL", 2, 2)
    for m, want in S3_SQUARE_COUNTS.items():
        oh = homcount.oracle_squares_histogram(ctx, m)
        assert oh[ctx.identity_index] == want
        assert oh.sum() == ctx.order**m


def test_oracle_quad_transpositions(group):
    # class of transpositions in S_3 = the order-2 class of GL_2(F_2)
    ctx = group("GL", 2, 2)
    trans = next(c.index for c in ctx.classes if c.element_order == 2)
    assert homcount.oracle_quad_count(ctx, (trans,) * 4) == S3_QUAD_TRANSPOSITIONS


def test_oracle_budget(group):
    ctx = group("GL", 2, 11)  # order 13200 exceeds the scan budget
    with pytest.raises(BudgetExceeded):
        homcount.commutator_histogram(ctx)


@pytest.mark.parametrize("key", [("GL", 2, 2), ("SL", 2, 3), ("GL", 2, 3)])
def test_formula_matches_oracle_commutators(group, table, key):
    ctx = group(*key)
    t = table(*key)
    oracle = homcount.oracle_commutator_counts(ctx)
    for l in range(t.k):
        assert homcount.commutator_count(t, l) == oracle[l]


@pytest.mark.parametrize("key", [("GL", 2, 2), ("SL", 2, 3)])
def test_formula_matches_oracle_surface(group, table, key):
    ctx = group(*key)
    t = table(*key)
    for g in (1, 2, 3):
        assert homcount.surface_hom_count(t, g) == homcount.oracle_surface_count(
            ctx, g
        )


def test_surface_count_exact_above_2_53(table):
    # a float64 sum of |G|^5 / d^4 lands on 49829989688064760 here
    t = table("SL", 2, 13)
    got = homcount.surface_hom_count(t, 3)
    assert got == 49829989688064768
    assert got == sum(Fraction(t.order) ** 5 / Fraction(d) ** 4 for d in t.degrees)


@pytest.mark.parametrize("key", [("GL", 2, 2), ("SL", 2, 3)])
def test_formula_matches_oracle_squares(group, table, key):
    ctx = group(*key)
    t = table(*key)
    for m in (1, 2, 3):
        oh = homcount.oracle_squares_histogram(ctx, m)
        for c in ctx.classes:
            assert homcount.fs_squares_count(t, m, c.index) == oh[c.rep_index]


def test_formula_matches_oracle_quad_exhaustive(group, table):
    ctx = group("GL", 2, 2)
    t = table("GL", 2, 2)
    for quad in itertools.product(range(t.k), repeat=4):
        assert homcount.quad_class_count(t, quad) == homcount.oracle_quad_count(
            ctx, quad
        )


def test_formula_accepts_element_argument(group, table):
    ctx = group("SL", 2, 3)
    t = table("SL", 2, 3)
    assert homcount.commutator_count(t, ctx.identity) == 168


def test_quad_requires_four_classes(table):
    t = table("GL", 2, 2)
    with pytest.raises(BadRange):
        homcount.quad_class_count(t, (0, 1))


def test_rounding_certificate_rejects_corrupt_table(table):
    t = table("SL", 2, 3)
    bad_values = t.values.copy()
    bad_values[3, 4] += 0.37  # breaks the character-sum integrality at class 4
    bad = dataclasses.replace(t, values=bad_values)
    with pytest.raises(RoundingFailure):
        homcount.commutator_count(bad, 4)


# -- class-representative scans against the per-element scan

ORACLE_GROUPS = [("GL", 2, 2), ("SL", 2, 3), ("GL", 2, 3), ("GL", 2, 4), ("SL", 2, 5), ("SL", 2, 9)]
ORACLE_IDS = [f"{kind}{n}(F_{q})" for kind, n, q in ORACLE_GROUPS]
FULL_SCAN_TUPLES = 6 * 10**6  # the per-element scan below visits every tuple


def _full_scan(ctx, words, d):
    """Word values over G^d with x1 over every element: one block per x1."""
    N = ctx.order
    rest = [r.reshape(-1) for r in np.indices((N,) * (d - 1), dtype=np.int64)]
    size = N ** (d - 1)
    for x1 in range(N):
        assign = [np.full(size, x1, dtype=np.int64), *rest]
        block = []
        for w in words:
            acc = np.full(size, ctx.identity_index, dtype=np.int64)
            for g, s in w.letters:
                v = assign[g - 1]
                acc = ctx.mul(acc, v if s > 0 else ctx.inv_idx[v])
            block.append(acc)
        yield block


def _full_histogram(ctx, word):
    hist = np.zeros(ctx.order, dtype=np.int64)
    for (vals,) in _full_scan(ctx, [word], word.max_gen):
        hist += np.bincount(vals, minlength=ctx.order)
    return hist


def _convolution_by_u(ctx, f, g, dtype):
    """(f * g)(z) summed over u: out += f(u) g(u^-1 .) for every u."""
    N = ctx.order
    all_idx = np.arange(N, dtype=np.int64)
    g = np.asarray(g, dtype=dtype)
    out = np.zeros(N, dtype=dtype)
    for u in range(N):
        if f[u]:
            out += int(f[u]) * g[ctx.mul(int(ctx.inv_idx[u]), all_idx)]
    return out


def _same(got, want):
    return got.dtype == want.dtype and [int(v) for v in got] == [int(v) for v in want]


@pytest.mark.parametrize("key", ORACLE_GROUPS, ids=ORACLE_IDS)
def test_class_scan_word_histogram_matches_full_scan(group, key):
    ctx = group(*key)
    texts = ["x1 x1", "X1 x1 x1 x1", "[x1,x2]", "x1 x1 x2 x2 x2", "x1 X2 x1",
             "x2 x3", "x1 x2 x3", "[x1,x2] X3 x1"]
    scanned = 0
    for text in texts:
        w = parse_word(text)
        if ctx.order**w.max_gen > FULL_SCAN_TUPLES:
            continue
        got = homcount.word_histogram(ctx, w)
        assert _same(got, _full_histogram(ctx, w)), text
        scanned += 1
    assert scanned >= 5  # every word in one or two generators


@pytest.mark.parametrize("key", ORACLE_GROUPS, ids=ORACLE_IDS)
def test_class_scan_hom_count_matches_full_scan(group, key):
    ctx = group(*key)
    ident = ctx.identity_index
    presentations = [
        Presentation(2, ("x1 x2 x1 x2",)),
        Presentation(2, ("[x1,x2]", "x2 x2 x2 x2")),
        Presentation(3, ("x2 x3 x2 x3", "[x1,x3]")),
    ]
    for pres in presentations:
        if ctx.order**pres.generators > FULL_SCAN_TUPLES:
            continue
        want = sum(
            int(np.logical_and.reduce([vals == ident for vals in block]).sum())
            for block in _full_scan(ctx, pres.relators, pres.generators)
        )
        assert homcount.hom_count_bruteforce(pres, ctx) == want, pres


@pytest.mark.parametrize("key", ORACLE_GROUPS, ids=ORACLE_IDS)
def test_class_scan_commutator_histogram_matches_full_scan(group, key):
    ctx = group(*key)
    got = homcount.commutator_histogram(ctx)
    assert _same(got, _full_histogram(ctx, parse_word("[x1,x2]")))


@pytest.mark.parametrize("key", ORACLE_GROUPS, ids=ORACLE_IDS)
def test_convolution_matches_sum_over_u(group, key):
    ctx = group(*key)
    rng = np.random.default_rng(ctx.order)
    comm = homcount.commutator_histogram(ctx)
    sq = homcount.squaring_histogram(ctx)
    last = np.asarray(ctx.class_of == len(ctx.classes) - 1, dtype=np.int64)
    noise = rng.integers(-4, 5, ctx.order)
    pairs = [(comm, sq), (sq, last), (last, last), (noise, rng.integers(0, 3, ctx.order)),
             (comm, noise), (noise, sq)]
    for f, g in pairs:
        assert _same(homcount.element_convolution(ctx, f, g),
                     _convolution_by_u(ctx, f, g, np.int64))


def test_convolution_matches_sum_over_u_above_int64(group):
    # the genus-6 surface count of SL_2(F_5) passes 2^63 in its last step
    ctx = group("SL", 2, 5)
    base = homcount.commutator_histogram(ctx)
    acc = base
    for _ in range(5):
        bound = max(abs(int(v)) for v in acc) * sum(int(v) for v in base)
        want = _convolution_by_u(ctx, acc, base, np.int64 if bound < 2**63 else object)
        acc = homcount.element_convolution(ctx, acc, base)
        assert _same(acc, want)
    assert acc.dtype == object


def test_merged_classes_fail_the_class_sum_certificate():
    # well-formed class data that merges the last class (order 8) into an
    # order-6 class: sizes and class_of agree, the partition is wrong
    ctx = matgrp.group_build_uncached("GL", 2, ff.field_make_q(3))
    classes = ctx.classes
    a = next(c.index for c in classes if c.element_order == 6)
    b = len(classes) - 1
    assert classes[b].element_order == 8
    merged = dataclasses.replace(classes[a], size=classes[a].size + classes[b].size)
    class_of = ctx.class_of.copy()
    class_of[class_of == b] = a
    ctx._classes = [*classes[:a], merged, *classes[a + 1 : b]]
    ctx._class_of = class_of
    assert np.array_equal(np.bincount(class_of), [c.size for c in ctx._classes])
    with pytest.raises(CertificateError):
        homcount.word_histogram(ctx, parse_word("[x1,x2]"))
