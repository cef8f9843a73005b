"""Word-map evaluation, fiber counts, dimension fits, commutative transitivity."""

import numpy as np
import pytest

from matgroups import ff, homcount, matgrp, wordmap
from matgroups.errors import BadRange, BudgetExceeded, SpecMismatch
from matgroups.homcount import Presentation, parse_word

# through-origin log-log fits over q in {3, 5, 7}, frozen from first runs
SURFACE_G2_DIM_3Q = 9.341514
FREE_RANK2_DIM_3Q = 5.937967
KLEIN_SAMPLES = ((3, 72), (5, 1080), (7, 2352))


def test_eval_word_explicit():
    f = ff.field_make(3)
    a = matgrp.matrix_element(f, [[1, 1], [0, 1]])
    b = matgrp.matrix_element(f, [[1, 0], [1, 1]])
    w = parse_word("x1 x2")
    assert wordmap.eval_word(w, (a, b)) == a @ b
    comm = wordmap.eval_word(parse_word("[x1,x2]"), (a, b))
    assert comm == a @ b @ matgrp.mat_inv(a) @ matgrp.mat_inv(b)


def test_eval_word_inverse_letters():
    f = ff.field_make(5)
    a = matgrp.matrix_element(f, [[2, 0], [0, 3]])
    assert wordmap.eval_word(parse_word("X1"), (a,)) == matgrp.mat_inv(a)
    ident = matgrp.identity_element(f, 2)
    assert wordmap.eval_word(parse_word("x1 X1"), (a,)) == ident


def test_eval_word_rejects_bad_tuples():
    f3 = ff.field_make(3)
    f5 = ff.field_make(5)
    a = matgrp.matrix_element(f3, [[1, 0], [0, 1]])
    b = matgrp.matrix_element(f5, [[1, 0], [0, 1]])
    with pytest.raises(SpecMismatch):
        wordmap.eval_word(parse_word("x1 x2"), (a,))
    with pytest.raises(SpecMismatch):
        wordmap.eval_word(parse_word("x1 x2"), (a, b))
    with pytest.raises(SpecMismatch):
        wordmap.eval_word(parse_word("x1"), ())


def test_fiber_count_commutator_identity(group):
    ctx = group("SL", 2, 3)
    w = parse_word("[x1,x2]")
    assert wordmap.fiber_count(w, ctx, ctx.identity) == 168
    total = sum(
        wordmap.fiber_count(w, ctx, ctx.element_at(i)) for i in range(0, 24, 5)
    )
    assert total > 0  # fibers over non-identity points exist too


def test_dimension_estimate_surface(group):
    prof = wordmap.dimension_estimate(
        homcount.surface_presentation(2), ("SL", 2), (3, 5, 7)
    )
    assert prof.fitted_dimension == pytest.approx(SURFACE_G2_DIM_3Q, abs=1e-5)
    assert prof.method == "character-formula"
    assert prof.irreducibility_consistent
    assert prof.samples[0] == (3, 53376)


def test_dimension_estimate_free_group():
    prof = wordmap.dimension_estimate(Presentation(2, ()), ("SL", 2), (3, 5, 7))
    assert prof.fitted_dimension == pytest.approx(FREE_RANK2_DIM_3Q, abs=1e-5)
    assert prof.method == "free"
    # dim SL_2 = 3 and two free generators: expect dimension near 6
    assert abs(prof.fitted_dimension - 6) < 0.1


def test_dimension_estimate_klein_bottle():
    prof = wordmap.dimension_estimate(
        homcount.squares_presentation(2), ("SL", 2), (3, 5, 7)
    )
    assert prof.samples == KLEIN_SAMPLES
    assert prof.method == "character-formula"


def test_dimension_estimate_scan_path(group):
    pres = Presentation(2, ("x1 x1 x2 x2 x2",))
    prof = wordmap.dimension_estimate(pres, ("SL", 2), (3, 5, 7))
    assert prof.method == "scan"
    for q, count in prof.samples:
        ctx = group("SL", 2, q)
        assert count == homcount.hom_count_bruteforce(pres, ctx)


def test_dimension_estimate_input_validation():
    pres = homcount.surface_presentation(1)
    with pytest.raises(BadRange):
        wordmap.dimension_estimate(pres, ("SL", 2), (3, 5))  # too few points
    with pytest.raises(BadRange):
        wordmap.dimension_estimate(pres, ("SL", 2), (3, 5, 5))  # not increasing


def test_double_word_stats_dominance(group):
    # [x1,x2][x3,x4] lands in the derived subgroup Q_8 of SL_2(F_3), so the
    # pair map with x1 covers exactly 8 * 24 of the 24^2 products
    ctx = group("SL", 2, 3)
    w1 = parse_word("[x1,x2][x3,x4]")
    w2 = parse_word("x1")
    image, fraction = wordmap.double_word_stats(w1, w2, ctx)
    assert image == 192
    assert fraction == pytest.approx(1 / 3)


def test_block_split_double_word_image(group):
    # |G| = 48: x1 is the scalar generator of each block, x2 x3 hits all of G
    ctx = group("GL", 2, 3)
    image, fraction = wordmap.double_word_stats(parse_word("x1"), parse_word("x2 x3"), ctx)
    assert image == ctx.order**2
    assert fraction == 1.0


def test_double_word_full_image(group):
    # (x1, x2) -> (x1, x2) hits every pair
    ctx = group("GL", 2, 2)
    image, fraction = wordmap.double_word_stats(
        parse_word("x1"), parse_word("x2"), ctx
    )
    assert image == ctx.order**2
    assert fraction == 1.0


@pytest.mark.parametrize("q", [3, 5, 7, 13])
def test_commutative_transitivity_sl2(group, q):
    assert wordmap.commutative_transitivity_check(group("SL", 2, q)) is True


def test_commutative_transitivity_gl2_f3(group):
    assert wordmap.commutative_transitivity_check(group("GL", 2, 3)) is True


def test_commutative_transitivity_domain(group):
    with pytest.raises(BadRange):
        wordmap.commutative_transitivity_check(group("GL", 2, 2))  # char 2
    with pytest.raises(BadRange):
        wordmap.commutative_transitivity_check(group("GL", 3, 2))  # not 2x2


def test_commutative_transitivity_budget():
    ctx = matgrp.group_build("SL", 2, ff.field_make(5, 2))  # order 15600
    with pytest.raises(BudgetExceeded):
        wordmap.commutative_transitivity_check(ctx)


def test_count_profile_leading_coefficient(group):
    prof = wordmap.dimension_estimate(
        homcount.surface_presentation(2), ("SL", 2), (3, 5, 7)
    )
    q_max, count_max = prof.samples[-1]
    rounded = round(prof.fitted_dimension)
    assert prof.fitted_leading_coefficient == pytest.approx(
        count_max / q_max**rounded
    )
    assert 0.5 <= prof.fitted_leading_coefficient <= 1.5
