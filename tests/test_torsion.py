"""Zero-sum subset families B_k, multiplicity classes A_n, witness search."""

import functools
import itertools
from fractions import Fraction

import pytest

from matgroups import torsion
from matgroups.errors import BadPrime, BadRange, BudgetExceeded

MU3 = {7: (1, 2, 4), 13: (1, 3, 9), 19: (1, 7, 11)}


@pytest.mark.parametrize("ell", sorted(MU3))
def test_mu3_frozen(ell):
    got = torsion.mu3(ell)
    assert got == MU3[ell]
    for a in got:
        assert pow(a, 3, ell) == 1


def test_mu3_rejects_bad_primes():
    with pytest.raises(BadPrime):
        torsion.mu3(5)  # 5 = 2 mod 3
    with pytest.raises(BadPrime):
        torsion.mu3(9)  # not prime
    with pytest.raises(BadPrime):
        torsion.mu3(2)


def test_b_small_sizes():
    assert torsion.b_k(7, 0) == [()]
    assert torsion.b_k(7, 1) == [(0,)]
    assert torsion.b_k(7, 2) == [(1, 6), (2, 5), (3, 4)]
    # for k = 3 the zero-sum condition forces the sets t * mu3
    assert torsion.b_k(7, 3) == [(1, 2, 4), (3, 5, 6)]
    assert torsion.b_k(13, 3) == [(1, 3, 9), (2, 5, 6), (4, 10, 12), (7, 8, 11)]


@pytest.mark.parametrize("ell", [7, 13])
def test_b_k_counts(ell):
    assert len(torsion.b_k(ell, 2)) == (ell - 1) // 2
    assert len(torsion.b_k(ell, 3)) == (ell - 1) // 3


def test_b_k_range_check():
    with pytest.raises(BadRange):
        torsion.b_k(7, -1)
    with pytest.raises(BadRange):
        torsion.b_k(7, 7)


def test_b_k_members_are_zero_sum():
    for k in range(7):
        for s in torsion.b_k(7, k):
            assert sum(s) % 7 == 0
            if k >= 3:
                assert torsion.contains_affine_mu3(7, s)


def test_in_b_k_matches_enumeration():
    for k in range(7):
        listed = set(torsion.b_k(7, k))
        for combo in itertools.combinations(range(7), k):
            assert torsion.in_b_k(7, combo) == (combo in listed)


def test_contains_affine_mu3_examples():
    # 2 * mu3(7) + 1 = {3, 5, 2}
    assert torsion.contains_affine_mu3(7, (2, 3, 5))
    assert not torsion.contains_affine_mu3(7, (0, 1, 2))


@functools.lru_cache(maxsize=None)
def _affine_mu3_images(ell):
    return {
        frozenset((t * u + c) % ell for u in torsion.mu3(ell))
        for t in range(1, ell)
        for c in range(ell)
    }


def _affine_mu3_scan(ell, subset):
    """Oracle: try every affine image t*mu3 + c with t != 0."""
    s = frozenset(subset)
    return any(image <= s for image in _affine_mu3_images(ell))


@pytest.mark.parametrize("ell,max_size", [(7, 7), (13, 13), (19, 6)])
def test_contains_affine_mu3_matches_scan(ell, max_size):
    for k in range(max_size + 1):
        for combo in itertools.combinations(range(ell), k):
            assert torsion.contains_affine_mu3(ell, combo) == _affine_mu3_scan(ell, combo)


def test_contains_affine_mu3_ignores_unreduced_entries():
    # {2, 3, 5} is 2 * mu3(7) + 1, but 9 and 12 are only congruent to 2 and 5
    unreduced = (9, 3, 12)
    assert _affine_mu3_scan(7, unreduced) is False
    assert torsion.contains_affine_mu3(7, unreduced) is False
    assert torsion.contains_affine_mu3(7, (9, 3, 12, 2, 5)) is True


def test_multiplicity_function_basics():
    f = torsion.MultiplicityFunction(7, (2, 1, 1, 1, 1, 1, 1))
    assert f.n == 8
    assert f.max_multiplicity == 2
    assert f.excess_set == (0,)
    g = f.translate(2)
    assert g.values == (1, 1, 2, 1, 1, 1, 1)
    assert (f + g).n == 16


def test_function_from_excess_roundtrip():
    f = torsion.function_from_excess(7, 9, (1, 6))
    assert f.values == (1, 2, 1, 1, 1, 1, 2)
    assert f.excess_set == (1, 6)
    assert torsion.is_in_a_n(f)


def test_a_n_counts_follow_b_k():
    for ell, n in [(7, 7), (7, 9), (7, 10), (13, 14), (13, 15)]:
        k = n % ell
        assert len(torsion.a_n(ell, n)) == len(torsion.b_k(ell, k))
    with pytest.raises(BadRange):
        torsion.a_n(7, 1)


def test_a_n_members_validate():
    for f in torsion.a_n(7, 10):
        assert f.n == 10
        assert torsion.is_in_a_n(f)
    not_member = torsion.MultiplicityFunction(7, (3, 1, 1, 1, 1, 1, 2))
    assert not torsion.is_in_a_n(not_member)


def test_cond2_witness_frozen_display():
    f = torsion.a_n(7, 7)[0]
    w = torsion.decomposition_witness(7, 7, f, "cond2")
    assert w.f_prime.values == (0, 1, 1, 1, 1, 1, 1)
    assert w.shift == 0
    assert w.singleton == 0
    assert w.rebuild() == f


def test_cond3_witness_frozen_display():
    f = torsion.a_n(13, 14)[0]
    assert f.values == (2,) + (1,) * 12
    w = torsion.decomposition_witness(13, 14, f, "cond3")
    assert w.f1.translate(w.shift1).values == (1,) * 12 + (0,)
    assert w.f2.values == (0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0)
    assert (w.shift1, w.shift2) == (12, 6)
    assert w.rebuild() == f


@pytest.mark.parametrize("ell", [7, 13])
def test_witnesses_rebuild_across_small_n(ell):
    for n in range(3, 18):
        for f in torsion.a_n(ell, n):
            w2 = torsion.decomposition_witness(ell, n, f, "cond2")
            assert w2.rebuild() == f
            assert w2.f_prime.n == n - 1
            if n >= 4:
                w3 = torsion.decomposition_witness(ell, n, f, "cond3")
                assert w3.rebuild() == f
                assert w3.f1.n == n - 2 and w3.f2.n == 2


def test_witness_validates_input():
    f = torsion.a_n(7, 7)[0]
    with pytest.raises(BadRange):
        torsion.decomposition_witness(7, 7, f, "cond9")
    with pytest.raises(BadRange):
        torsion.decomposition_witness(7, 8, f, "cond2")  # n mismatch
    small = torsion.a_n(7, 2)[0]
    with pytest.raises(BadRange):
        torsion.decomposition_witness(7, 2, small, "cond2")  # needs n >= 3


def test_torsion_class_counts():
    free = torsion.torsion_classes("free-product", 7)
    assert len(free.representatives) == 12
    assert {g for g, _ in free.representatives} == {"g1", "g2"}
    assert {e for _, e in free.representatives} == set(range(1, 7))
    quad = torsion.torsion_classes("quadrilateral", 19)
    assert len(quad.representatives) == 72
    assert {g for g, _ in quad.representatives} == {"x", "y", "z", "t"}


def test_torsion_class_domain():
    with pytest.raises(BadPrime):
        torsion.torsion_classes("quadrilateral", 13)  # needs ell >= 19
    with pytest.raises(BadRange):
        torsion.torsion_classes("dihedral", 7)


def test_multiplicity_ceiling():
    for n in range(20, 40):
        if n % 19 == 0:
            continue
        for f in torsion.a_n(19, n):
            rep = torsion.class_multiplicity_check(19, n, f)
            assert rep.ceiling == -(-n // 19)
            assert rep.within_ceiling
            assert rep.max_multiplicity <= rep.ceiling


def test_multiplicity_chain_exact_arithmetic():
    f = torsion.a_n(19, 20)[0]
    rep = torsion.class_multiplicity_check(19, 20, f)
    assert rep.alpha == Fraction(1, 10)
    assert rep.chain_applicable
    assert rep.chain_holds


def test_multiplicity_chain_not_applicable():
    # small primes sit outside the chain's hypotheses
    f = torsion.a_n(7, 9)[0]
    rep = torsion.class_multiplicity_check(7, 9, f)
    assert not rep.chain_applicable
    # multiples of ell give a = 0 excess-free functions
    g = torsion.a_n(19, 38)[0]
    rep2 = torsion.class_multiplicity_check(19, 38, g)
    assert not rep2.chain_applicable


def test_subset_budget():
    # C(601, 9) is astronomically past the enumeration budget
    with pytest.raises(BudgetExceeded):
        torsion.b_k(601, 9)
