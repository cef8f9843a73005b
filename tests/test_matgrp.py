"""Group enumeration, conjugacy classes, and matrix element arithmetic."""

import tracemalloc

import numpy as np
import pytest

from matgroups import charbound, ff, matgrp
from matgroups.errors import (
    BadRange,
    BudgetExceeded,
    ElementNotInGroup,
    NoSuchClass,
    NotSquarefree,
)
from matrix_oracles import (
    char_poly_by_minors,
    eigenvalue_multiplicities_by_factoring,
    is_semisimple_by_min_poly,
    min_poly,
)

# (kind, n, q) -> (order, number of classes)
KNOWN_SHAPES = {
    ("GL", 2, 2): (6, 3),
    ("SL", 2, 3): (24, 7),
    ("GL", 2, 3): (48, 8),
    ("SL", 2, 4): (60, 5),
    ("SL", 2, 5): (120, 9),
    ("SL", 2, 7): (336, 11),
    ("GL", 2, 5): (480, 24),
    ("GL", 3, 2): (168, 6),
    ("SL", 2, 13): (2184, 17),
}


KERNEL_QS = (2, 3, 43, 4, 8, 32, 9, 25, 27)
# a group of n x n matrices over each field that fits the enumeration budgets
KERNEL_GROUPS = (
    [("GL", 1, q) for q in KERNEL_QS]
    + [("SL", 2, q) for q in KERNEL_QS]
    + [("SL", 3, q) for q in (2, 3, 4)]
)


def _scalar_products(field, X, Y):
    """Products of two broadcasting matrix batches, one MatrixElement.__matmul__ each."""
    n = X.shape[-1]
    X, Y = np.broadcast_arrays(X, Y)
    out = []
    for x, y in zip(X.reshape(-1, n * n), Y.reshape(-1, n * n)):
        prod = matgrp.MatrixElement(field, n, x) @ matgrp.MatrixElement(field, n, y)
        out.append(prod.codes)
    return np.array(out, dtype=np.int64).reshape(X.shape)


@pytest.mark.parametrize("q", KERNEL_QS)
@pytest.mark.parametrize("n", (1, 2, 3))
def test_vec_matmul_matches_scalar_product(n, q):
    f = ff.field_make_q(q)
    rng = np.random.default_rng(q * 10 + n)
    X = rng.integers(0, q, (40, n, n))
    Y = rng.integers(0, q, (40, n, n))
    assert np.array_equal(matgrp.vec_matmul(f, X, Y), _scalar_products(f, X, Y))
    # r x 1 against 1 x N, and one matrix against N
    R = matgrp.vec_matmul(f, X[:5, None], Y[None, :7])
    assert R.shape == (5, 7, n, n)
    assert np.array_equal(R, _scalar_products(f, X[:5, None], Y[None, :7]))
    assert np.array_equal(matgrp.vec_matmul(f, X[0], Y), _scalar_products(f, X[0], Y))


def _check_mul(ctx, a, b):
    out = ctx.mul(a, b)
    a, b = np.broadcast_arrays(a, b)
    assert out.shape == a.shape
    want = [ctx.index_of(ctx.element_at(u) @ ctx.element_at(v)) for u, v in zip(a.flat, b.flat)]
    assert out.reshape(-1).tolist() == want


@pytest.mark.parametrize("kind,n,q", KERNEL_GROUPS)
def test_group_mul_matches_scalar_product(kind, n, q):
    ctx = matgrp.group_build_uncached(kind, n, ff.field_make_q(q))  # no Cayley table yet
    rng = np.random.default_rng(ctx.order)
    a = rng.integers(0, ctx.order, 60)
    b = rng.integers(0, ctx.order, 60)
    for _ in range(2):  # by matrix products, then by the Cayley table where one is kept
        _check_mul(ctx, a, b)
        _check_mul(ctx, a[:6, None], b[None, :9])
        _check_mul(ctx, int(a[0]), b)
        assert ctx.mul_idx(int(a[1]), int(b[1])) == ctx.index_of(
            ctx.element_at(a[1]) @ ctx.element_at(b[1]))
        if ctx.cayley is None:
            break


FIXED_FACTOR_GROUPS = (
    [("SL", 2, q) for q in KERNEL_QS] + [("SL", 3, q) for q in (2, 3, 4)] + [("GL", 4, 2)]
)


@pytest.mark.parametrize("kind,n,q", FIXED_FACTOR_GROUPS)
def test_fixed_factor_products_match_scalar_product(kind, n, q):
    # below q^n factors the matrix path runs, from q^n on the line-table path
    ctx = matgrp.group_build_uncached(kind, n, ff.field_make_q(q))
    rng = np.random.default_rng(ctx.order + q)
    lines = q**n
    fixed = int(rng.integers(ctx.order))
    for size in (lines - 1, lines):
        a = rng.integers(0, ctx.order, size)
        for arr in (a, a.reshape(1, -1), a.reshape(-1, 1)):
            _check_mul(ctx, arr, fixed)
            _check_mul(ctx, fixed, arr)
        built = ctx._row_keys is not None, ctx._col_keys is not None
        assert built == ((size == lines),) * 2


def test_fixed_factor_products_over_a_gl1():
    ctx = matgrp.group_build_uncached("GL", 1, ff.field_make_q(16))
    a = np.broadcast_to(np.arange(ctx.order), (2, ctx.order))  # 30 >= 16 entries
    for fixed in (0, 7, ctx.order - 1):
        _check_mul(ctx, a, fixed)
        _check_mul(ctx, fixed, a)
    assert ctx._row_keys is not None and ctx._col_keys is not None


@pytest.mark.parametrize("kind,n,q", [("GL", 2, 4), ("SL", 2, 9), ("GL", 3, 2)])
def test_class_orbits_match_bruteforce_conjugation(group, kind, n, q):
    ctx = group(kind, n, q)
    elems = [ctx.element_at(i) for i in range(ctx.order)]
    invs = [matgrp.mat_inv(g) for g in elems]
    seen: set[int] = set()
    orbits = []
    for x in range(ctx.order):
        if x not in seen:
            orbit = {ctx.index_of(g @ elems[x] @ gi) for g, gi in zip(elems, invs)}
            seen |= orbit
            orbits.append(sorted(orbit))
    classes = [np.flatnonzero(ctx.class_of == c.index).tolist() for c in ctx.classes]
    assert sorted(classes) == sorted(orbits)
    assert [c.rep_index for c in ctx.classes] == [cl[0] for cl in classes]


def test_group_order_formula():
    assert matgrp.group_order("GL", 2, 3) == 48
    assert matgrp.group_order("SL", 2, 3) == 24
    assert matgrp.group_order("GL", 3, 2) == 168
    assert matgrp.group_order("SL", 3, 3) == 5616


# (kind, n, q) for n = 1..4 over prime and extension fields, within the order budget
ENUMERATION_CASES = [
    (kind, n, q)
    for kind in ("SL", "GL")
    for n, qs in ((1, (2, 7, 8, 9)), (2, (2, 3, 4, 5, 8, 9, 25)), (3, (2, 3)), (4, (2,)))
    for q in qs
    if matgrp.group_order(kind, n, q) <= matgrp.ORDER_BUDGET
]


def _candidate_scan(kind, n, field):
    """All q^(n^2) matrices in ascending key order, kept when their determinant fits."""
    q = field.q
    codes = np.arange(q ** (n * n), dtype=np.int64)
    X = np.stack([codes // q**i % q for i in range(n * n)], axis=-1).reshape(-1, n, n)
    det = matgrp.vec_det(field, X)
    return X[det == 1] if kind == "SL" else X[det != 0]


@pytest.mark.parametrize("kind,n,q", ENUMERATION_CASES)
def test_enumeration_matches_candidate_scan(kind, n, q):
    f = ff.field_make_q(q)
    mats = matgrp.group_build_uncached(kind, n, f).mats
    assert mats.dtype == np.int64
    assert np.array_equal(mats, _candidate_scan(kind, n, f))


def test_enumeration_of_a_large_gl1():
    # every nonzero code of F_{2^16}, the largest power-of-two field within the order budget
    ctx = matgrp.group_build_uncached("GL", 1, ff.field_make(2, 16))
    assert ctx.order == 2**16 - 1
    assert np.array_equal(ctx.mats.reshape(-1), np.arange(1, 2**16))


def test_enumeration_memory_stays_near_the_group_size():
    # SL_2(F_43) has 79,464 elements among 3.4M candidate matrices
    f = ff.field_make(43)
    tracemalloc.start()
    try:
        matgrp.group_build_uncached("SL", 2, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20


@pytest.mark.parametrize("kind,n,q", sorted(KNOWN_SHAPES))
def test_known_orders_and_class_counts(group, kind, n, q):
    ctx = group(kind, n, q)
    order, k = KNOWN_SHAPES[(kind, n, q)]
    assert ctx.order == order
    assert len(ctx.classes) == k


def test_matrix_element_ops():
    f = ff.field_make(3)
    a = matgrp.matrix_element(f, [[1, 1], [0, 1]])
    b = matgrp.matrix_element(f, [[1, 0], [1, 1]])
    prod = a @ b
    assert prod.codes == (2, 1, 1, 1)
    assert matgrp.mat_det(a) == 1
    inv = matgrp.mat_inv(prod)
    ident = matgrp.identity_element(f, 2)
    assert prod @ inv == ident


def test_char_poly_and_min_poly():
    f = ff.field_make(3)
    ident = matgrp.identity_element(f, 2)
    # char poly (x-1)^2 = x^2 + x + 1 over F_3, min poly x - 1
    assert matgrp.char_poly(ident) == (1, 1, 1)
    assert min_poly(ident) == (2, 1)
    u = matgrp.matrix_element(f, [[1, 1], [0, 1]])
    assert matgrp.char_poly(u) == (1, 1, 1)
    assert min_poly(u) == (1, 1, 1)
    assert not matgrp.is_semisimple_matrix(u)
    assert matgrp.is_semisimple_matrix(ident)


# (q, n) for the Hessenberg char poly against the principal-minor oracle
CHAR_POLY_CASES = [(2, 2), (3, 2), (2, 3), (5, 2), (4, 3), (3, 3), (2, 4), (3, 4), (7, 3),
                   (2, 5), (9, 2), (8, 3), (27, 2), (2, 6), (16, 2), (25, 3)]


def _elements(field, X):
    return [matgrp.MatrixElement(field, X.shape[-1], x.reshape(-1)) for x in X]


@pytest.mark.parametrize("q,n", CHAR_POLY_CASES)
def test_char_poly_matches_principal_minors(q, n):
    f = ff.field_make_q(q)
    rng = np.random.default_rng(100 * q + n)
    X = rng.integers(0, q, (100, n, n))
    X[:30] *= rng.random((30, n, n)) < 0.3  # sparse ones hit the zero-pivot branches
    assert [matgrp.char_poly(T) for T in _elements(f, X)] == char_poly_by_minors(f, X)
    if n <= 4:
        for T in _elements(f, X):
            assert matgrp.is_semisimple_matrix(T) == is_semisimple_by_min_poly(T)


def _degenerate_matrices(q, n, rng):
    """Matrices that steer the Hessenberg reduction through each of its branches."""
    out = []
    A = rng.integers(0, q, (n, n))
    A[1:, 0] = 0  # no pivot in the first column
    out.append(A)
    B = rng.integers(1, q, (n, n)) if q > 2 else np.ones((n, n), dtype=np.int64)
    B[1, 0] = 0  # the pivot sits below the subdiagonal: a row/column swap
    out.append(B)
    out.append(np.diag(rng.integers(0, q, n)))
    for c in range(q if q <= 4 else 3):  # a scalar plus the nilpotent shift
        out.append(np.eye(n, k=1, dtype=np.int64) + c * np.eye(n, dtype=np.int64))
    k = n // 2  # block upper triangular, with a zero lower-left block
    C = rng.integers(0, q, (n, n))
    C[k:, :k] = 0
    out.append(C)
    out.append(np.triu(rng.integers(0, q, (n, n))))
    return np.array(out)


@pytest.mark.parametrize("q", (2, 3, 4, 5, 9))
@pytest.mark.parametrize("n", (3, 4, 5))
def test_char_poly_on_degenerate_matrices(q, n):
    f = ff.field_make_q(q)
    X = _degenerate_matrices(q, n, np.random.default_rng(q * n))
    assert [matgrp.char_poly(T) for T in _elements(f, X)] == char_poly_by_minors(f, X)
    for T in _elements(f, X):
        assert matgrp.is_semisimple_matrix(T) == is_semisimple_by_min_poly(T)
        assert matgrp.eigenvalue_multiplicities(T) == eigenvalue_multiplicities_by_factoring(T)


@pytest.mark.parametrize("kind,n,q", [("GL", 2, 3), ("GL", 2, 4), ("SL", 2, 9), ("GL", 3, 2),
                                      ("SL", 3, 3)])
def test_class_invariants_match_oracles(group, kind, n, q):
    ctx = group(kind, n, q)
    for c in ctx.classes:
        T = c.representative
        assert c.char_poly == char_poly_by_minors(ctx.field, T.as_array()[None])[0]
        assert c.is_semisimple == matgrp.is_semisimple_matrix(T) == is_semisimple_by_min_poly(T)
        assert (c.eigenvalue_multiplicities == matgrp.eigenvalue_multiplicities(T)
                == eigenvalue_multiplicities_by_factoring(T))
    assert not all(c.is_semisimple for c in ctx.classes)


@pytest.mark.parametrize("q", (2, 3, 5))
def test_jordan_blocks_next_to_other_eigenvalues(q):
    f = ff.field_make(q)
    jordan = matgrp.companion_matrix(f, (1, f.neg_code(2), 1))  # (x - 1)^2
    rot = matgrp.companion_matrix(f, (1, 1, 1))  # x^2 + x + 1
    scalar = [matgrp.matrix_element(f, [[c]]) for c in range(q)]
    cases = [([jordan, scalar[c]], False) for c in range(q)]
    cases += [([jordan, jordan], False), ([jordan, rot], False)]
    cases += [([scalar[c], scalar[c], scalar[1]], True) for c in range(q)]  # diagonal
    cases += [([rot, rot], q != 3)]  # x^2 + x + 1 = (x - 1)^2 over F_3
    for blocks, semisimple in cases:
        T = charbound._block_diag(f, blocks)
        assert matgrp.is_semisimple_matrix(T) == is_semisimple_by_min_poly(T) == semisimple
        assert matgrp.eigenvalue_multiplicities(T) == eigenvalue_multiplicities_by_factoring(T)


def test_companion_matrix_has_its_charpoly():
    f = ff.field_make(5)
    poly = (2, 3, 1, 1)  # monic cubic
    c = matgrp.companion_matrix(f, poly)
    assert matgrp.char_poly(c) == poly


def test_eigenvalue_multiplicities():
    f = ff.field_make(3)
    ident = matgrp.identity_element(f, 2)
    assert matgrp.eigenvalue_multiplicities(ident) == ((1, 2),)
    rot = matgrp.matrix_element(f, [[0, 2], [1, 0]])  # char poly x^2 + 1, irreducible
    assert matgrp.eigenvalue_multiplicities(rot) == ((2, 1),)


def test_classes_partition_the_group(group):
    ctx = group("SL", 2, 3)
    sizes = [c.size for c in ctx.classes]
    assert sum(sizes) == ctx.order
    # every element is assigned to exactly one class
    counts = np.bincount(ctx.class_of, minlength=len(ctx.classes))
    assert list(counts) == sizes


def test_centralizer_times_class_size(group):
    ctx = group("GL", 2, 3)
    for c in ctx.classes:
        assert c.size * c.centralizer_order == ctx.order


def test_class_invariants_constant_on_class(group):
    ctx = group("SL", 2, 3)
    for c in ctx.classes:
        rep = c.representative
        assert ctx.class_index_of(rep) == c.index
        assert matgrp.char_poly(rep) == c.char_poly
        assert ctx.element_order_of_idx(c.rep_index) == c.element_order


def test_identity_class_is_singleton(group):
    ctx = group("GL", 2, 2)
    c0 = ctx.classes[ctx.class_of[ctx.identity_index]]
    assert c0.size == 1
    assert c0.element_order == 1


def test_inverse_index_array(group):
    ctx = group("SL", 2, 3)
    inv = ctx.inv_idx
    for i in range(ctx.order):
        assert ctx.index_of(ctx.element_at(i) @ ctx.element_at(inv[i])) == ctx.identity_index


def test_determinant_constraint(group):
    ctx = group("SL", 2, 5)
    for i in range(0, ctx.order, 17):
        assert matgrp.mat_det(ctx.element_at(i)) == 1


def test_index_of_rejects_outsiders(group):
    ctx = group("SL", 2, 3)
    f = ctx.field
    outside = matgrp.matrix_element(f, [[1, 0], [0, 2]])  # det 2, not in SL
    with pytest.raises(ElementNotInGroup):
        ctx.index_of(outside)


def test_element_accepts_nested_rows(group):
    ctx = group("SL", 2, 3)
    e = ctx.element([[1, 1], [0, 1]])
    assert ctx.index_of(e) >= 0


def test_semisimple_class_lookup(group):
    ctx = group("GL", 2, 3)
    rot = matgrp.matrix_element(ctx.field, [[0, 2], [1, 0]])
    info = matgrp.semisimple_class_from_charpoly(ctx, matgrp.char_poly(rot))
    assert info.char_poly == (1, 0, 1)
    assert info.is_semisimple
    with pytest.raises(NotSquarefree):
        # x^2 + x + 1 = (x + 2)^2 over F_3: repeated factor, lookup refuses
        matgrp.semisimple_class_from_charpoly(ctx, (1, 1, 1))
    sl = group("SL", 2, 3)
    with pytest.raises(NoSuchClass):
        # constant term 2 forces det 2, impossible in SL_2
        matgrp.semisimple_class_from_charpoly(sl, (2, 1, 1))


def test_group_build_validates_input():
    with pytest.raises(BadRange):
        matgrp.group_build("SU", 2, ff.field_make(3))
    with pytest.raises(BadRange):
        matgrp.group_build("SL", 0, ff.field_make(3))


def test_order_budget_enforced():
    with pytest.raises(BudgetExceeded):
        matgrp.group_build("GL", 3, ff.field_make(5))


def test_cache_round_trip(tmp_path):
    f = ff.field_make(3)
    first = matgrp.group_build("SL", 2, f, cache_dir=str(tmp_path))
    second = matgrp.group_build("SL", 2, f, cache_dir=str(tmp_path))
    assert second.order == first.order
    assert np.array_equal(second.mats, first.mats)
    assert [c.size for c in second.classes] == [c.size for c in first.classes]
    assert [c.char_poly for c in second.classes] == [
        c.char_poly for c in first.classes
    ]


def test_extension_field_group(group):
    # SL_2(F_4) is simple of order 60
    ctx = group("SL", 2, 4)
    assert ctx.order == 60
    orders = sorted({c.element_order for c in ctx.classes})
    assert orders == [1, 2, 3, 5]
