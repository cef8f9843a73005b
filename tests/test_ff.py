"""Field arithmetic and polynomial utilities."""

import random

import pytest

from matgroups import ff
from matgroups.errors import BadRange, DivisionByZero, NonPrime


def test_is_prime_small():
    primes = [p for p in range(2, 60) if ff.is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_field_make_rejects_composite_characteristic():
    with pytest.raises(NonPrime):
        ff.field_make(6)
    with pytest.raises(NonPrime):
        ff.field_make(1)


def test_split_prime_power():
    assert ff.split_prime_power(7) == (7, 1)
    assert ff.split_prime_power(8) == (2, 3)
    assert ff.split_prime_power(81) == (3, 4)
    with pytest.raises(NonPrime):
        ff.split_prime_power(12)
    with pytest.raises(NonPrime):
        ff.split_prime_power(1)


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3)])
def test_field_axioms_exhaustive(p, m):
    # Small enough to check every pair: associativity, distributivity,
    # commutativity, inverses.
    f = ff.field_make(p, m)
    q = f.q
    codes = range(q)
    for a in codes:
        assert f.add_code(a, 0) == a
        assert f.mul_code(a, f.one.code) == a
        assert f.add_code(a, f.neg_code(a)) == 0
        if a != 0:
            assert f.mul_code(a, f.inv_code(a)) == f.one.code
        for b in codes:
            assert f.add_code(a, b) == f.add_code(b, a)
            assert f.mul_code(a, b) == f.mul_code(b, a)
            for c in codes:
                assert f.mul_code(a, f.add_code(b, c)) == f.add_code(
                    f.mul_code(a, b), f.mul_code(a, c)
                )


def test_division_by_zero():
    f = ff.field_make(5)
    with pytest.raises(DivisionByZero):
        f.inv_code(0)


def test_element_arithmetic_operators():
    f = ff.field_make(7)
    a = f.element(3)
    b = f.element(5)
    assert (a + b).code == 1
    assert (a * b).code == 1
    assert (a - b).code == 5
    assert (a / b).code == (a * b.inverse()).code
    assert (b**6).code == 1  # Fermat


def test_extension_field_frobenius():
    # In F_{p^m} the map x -> x^p is an automorphism fixing exactly F_p.
    f = ff.field_make(3, 2)
    fixed = [a for a in range(f.q) if f.pow_code(a, 3) == a]
    assert sorted(fixed) == [0, 1, 2]


def test_multiplicative_group_is_cyclic():
    for p, m in [(2, 2), (3, 2), (5, 1), (2, 4)]:
        f = ff.field_make(p, m)
        g = f.primitive_code()
        assert f.code_order(g) == f.q - 1


def test_code_order_divides_group_order():
    f = ff.field_make(2, 3)
    for a in range(1, f.q):
        assert (f.q - 1) % f.code_order(a) == 0


def test_vec_ops_match_scalar():
    import numpy as np

    f = ff.field_make(2, 2)
    a = np.arange(f.q).repeat(f.q)
    b = np.tile(np.arange(f.q), f.q)
    add = f.vec_add(a, b)
    mul = f.vec_mul(a, b)
    for i in range(len(a)):
        assert add[i] == f.add_code(int(a[i]), int(b[i]))
        assert mul[i] == f.mul_code(int(a[i]), int(b[i]))


def test_poly_divmod_roundtrip():
    f = ff.field_make(5)
    a = (1, 2, 3, 4, 1)
    b = (2, 0, 1)
    quot, rem = ff.poly_divmod(f, a, b)
    back = ff.poly_add(f, ff.poly_mul(f, quot, b), rem)
    assert back == ff.poly_trim(a)
    assert len(rem) < len(b)


def test_poly_gcd_of_multiples():
    f = ff.field_make(3)
    g = (1, 1)  # x + 1
    a = ff.poly_mul(f, g, (2, 1))
    b = ff.poly_mul(f, g, (1, 0, 1))
    d = ff.poly_gcd(f, a, b)
    assert ff.poly_monic(f, d) == (1, 1)


def test_poly_eval():
    f = ff.field_make(7)
    # 3 + 2x + x^2 at x = 2 is 3 + 4 + 4 = 11 = 4 mod 7
    assert ff.poly_eval(f, (3, 2, 1), 2) == 4


def test_squarefree_detection():
    f = ff.field_make(3)
    sq = ff.poly_mul(f, (1, 1), (1, 1))
    assert not ff.poly_is_squarefree(f, sq)
    # x^2 + x + 1 = (x + 2)^2 over F_3, so use x^2 + 1 instead
    assert ff.poly_is_squarefree(f, (1, 0, 1))


def test_irreducibility_known_cases():
    f2 = ff.field_make(2)
    assert ff.poly_is_irreducible(f2, (1, 1, 1))  # x^2 + x + 1
    assert not ff.poly_is_irreducible(f2, (1, 0, 1))  # (x+1)^2
    f3 = ff.field_make(3)
    assert ff.poly_is_irreducible(f3, (1, 0, 1))  # x^2 + 1 over F_3
    assert not ff.poly_is_irreducible(f3, (2, 0, 1))  # x^2 - 1


def test_irreducible_count_matches_necklace_formula():
    # Number of monic irreducible quadratics over F_q is (q^2 - q) / 2.
    for q in (2, 3, 5):
        f = ff.field_make(q)
        count = sum(
            1
            for poly in ff._monic_polys(f, 2)
            if ff.poly_is_irreducible(f, poly)
        )
        assert count == (q * q - q) // 2


def test_poly_factor_reassembles():
    f = ff.field_make(2)
    target = ff.poly_mul(f, ff.poly_mul(f, (1, 1), (1, 1)), (1, 1, 1))
    factors = ff.poly_factor(f, target)
    acc = (1,)
    for base, mult in factors:
        assert ff.poly_is_irreducible(f, base)
        for _ in range(mult):
            acc = ff.poly_mul(f, acc, base)
    assert acc == ff.poly_trim(target)


def test_poly_str():
    assert ff.poly_str((1, 0, 1)) == "x^2 + 1"
    assert ff.poly_str((0, 2)) == "2*x"
    assert ff.poly_str((0,)) == "0"


def test_element_coercion():
    f = ff.field_make(3)
    # out-of-range integers reduce as constants mod p
    assert f.element(5).code == 2
    assert f.element(-1).code == 2
    with pytest.raises(BadRange):
        f.element([1, 2, 0, 1])  # more coefficients than the degree allows


def _first_irreducible_by_factoring(p, m):
    fp = ff.field_make(p)
    return next(f for f in ff._monic_polys(fp, m) if ff.poly_factor(fp, f) == [(f, 1)])


@pytest.mark.parametrize(
    "p,m",
    [(p, m) for p in range(2, 33) if ff.is_prime(p) for m in range(2, 11) if p**m <= 2**10],
)
def test_modulus_is_first_irreducible_in_monic_order(p, m):
    assert ff.field_make(p, m).modulus == _first_irreducible_by_factoring(p, m)


@pytest.mark.parametrize(
    "p,m,modulus",
    [
        (2, 16, "x^16 + x^5 + x^3 + x + 1"),
        (2, 17, "x^17 + x^3 + 1"),
        (2, 20, "x^20 + x^3 + 1"),
        (3, 10, "x^10 + 2*x^2 + 1"),
        (5, 8, "x^8 + 2"),
        (1021, 2, "x^2 + 2"),
    ],
)
def test_large_field_moduli_frozen(p, m, modulus):
    # element codes and cache-file names depend on the modulus
    assert ff.poly_str(ff.field_make(p, m).modulus) == modulus


@pytest.mark.parametrize("q,max_degree", [(2, 4), (3, 4), (4, 4), (5, 3), (9, 3)])
def test_gcd_irreducibility_matches_factoring(q, max_degree):
    f = ff.field_make_q(q)
    for d in range(max_degree + 1):
        for poly in ff._monic_polys(f, d):
            by_factoring = ff.poly_factor(f, poly) == [(poly, 1)]
            assert ff.poly_is_irreducible(f, poly) == by_factoring, poly


def test_inverse_without_tables_in_f_2_20():
    # q = 2^20 is past both exp/log limits, so inv_code runs extended Euclid
    f = ff.field_make(2, 20)
    for a in random.Random(0).sample(range(1, f.q), 3000):
        assert f.mul_code(a, f.inv_code(a)) == 1


def _exp_by_power_walk(f):
    """g^0, ..., g^(q-2) for the primitive g, one table-free product each."""
    g, exp = f.primitive_code(), [1]
    for _ in range(f.q - 2):
        exp.append(f._mul_direct(exp[-1], g))
    return exp


@pytest.mark.parametrize(
    "p,m", [(p, m) for p in range(2, 91) if ff.is_prime(p) for m in range(2, 14) if p**m <= 2**13]
)
def test_explog_tables_match_power_walk(p, m):
    f = ff.field_make(p, m)
    f._build_explog()
    exp, log = f._explog
    want = _exp_by_power_walk(f)
    assert exp.tolist() == want
    assert log[want].tolist() == list(range(f.q - 1))


def test_explog_tables_of_f_2_17():
    f = ff.field_make(2, 17)
    f._build_explog()
    exp, log = f._explog
    assert sorted(exp.tolist()) == list(range(1, f.q))
    assert log[exp].tolist() == list(range(f.q - 1))
    rng = random.Random(17)
    for _ in range(200):
        i, j = rng.randrange(f.q - 1), rng.randrange(f.q - 1)
        assert f._mul_direct(int(exp[i]), int(exp[j])) == exp[(i + j) % (f.q - 1)]
