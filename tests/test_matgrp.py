"""Group enumeration, conjugacy classes, and matrix element arithmetic."""

import numpy as np
import pytest

from matgroups import ff, matgrp
from matgroups.errors import (
    BadRange,
    BudgetExceeded,
    ElementNotInGroup,
    NoSuchClass,
    NotSquarefree,
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
    assert matgrp.min_poly(ident) == (2, 1)
    u = matgrp.matrix_element(f, [[1, 1], [0, 1]])
    assert matgrp.char_poly(u) == (1, 1, 1)
    assert matgrp.min_poly(u) == (1, 1, 1)
    assert not matgrp.is_semisimple_matrix(u)
    assert matgrp.is_semisimple_matrix(ident)


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
