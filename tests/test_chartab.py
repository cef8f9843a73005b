"""Character table construction: orthogonality, degrees, indicators."""

import numpy as np
import pytest

from matgroups import chartab, homcount

# degree multisets and Frobenius-Schur indicators pinned from independent
# computation (class-equation and squaring-map cross-checks below)
SL2_F3_DEGREES = (1, 1, 1, 2, 2, 2, 3)
SL2_F3_FS = (0, 0, 1, -1, 0, 0, 1)
SL2_F5_DEGREES = (1, 2, 2, 3, 3, 4, 4, 5, 6)
SL2_F5_FS = (1, -1, -1, 1, 1, -1, 1, 1, -1)


def test_degree_squares_sum_to_order(table):
    for key in [("GL", 2, 2), ("SL", 2, 3), ("GL", 2, 3), ("SL", 2, 5)]:
        t = table(*key)
        assert sum(d * d for d in t.degrees) == t.order
        assert all(t.order % d == 0 for d in t.degrees)


def test_row_orthogonality(table):
    t = table("SL", 2, 3)
    sizes = np.array(t.class_sizes, dtype=np.float64)
    gram = (t.values * sizes) @ t.values.conj().T
    assert np.allclose(gram, t.order * np.eye(t.k), atol=1e-8)


def test_column_orthogonality(table):
    t = table("GL", 2, 3)
    gram = t.values.conj().T @ t.values
    expect = np.diag([t.order / s for s in t.class_sizes])
    assert np.allclose(gram, expect, atol=1e-8)


def test_identity_column_is_degrees(table):
    t = table("SL", 2, 5)
    col = t.values[:, t.identity_class]
    assert np.allclose(col.imag, 0, atol=1e-9)
    assert np.allclose(col.real, t.degrees, atol=1e-9)


def test_sl2_f3_shape():
    # rebuilt fresh (not via the session fixture) to also cover determinism
    import matgroups

    ctx = matgroups.group_build("SL", 2, matgroups.field_make(3))
    t1 = chartab.character_table(ctx, seed=0)
    t2 = chartab.character_table(ctx, seed=0)
    assert t1.degrees == SL2_F3_DEGREES
    assert t1.fs_indicators == SL2_F3_FS
    assert np.array_equal(t1.values, t2.values)


def test_sl2_f5_shape(table):
    t = table("SL", 2, 5)
    assert t.degrees == SL2_F5_DEGREES
    assert t.fs_indicators == SL2_F5_FS


def test_gl2_f2_is_symmetric_group_on_three(table):
    t = table("GL", 2, 2)
    assert t.degrees == (1, 1, 2)
    assert t.fs_indicators == (1, 1, 1)


def test_gl2_f11_degree_set(table):
    t = table("GL", 2, 11)
    assert t.k == 120
    assert sorted(set(t.degrees)) == [1, 10, 11, 12]


def test_linear_character_count_is_abelianization(table):
    # [SL_2(F_3), SL_2(F_3)] = Q_8, so exactly 3 linear characters
    t = table("SL", 2, 3)
    assert sum(1 for d in t.degrees if d == 1) == 3
    # GL_2(F_3) has abelianization of order q - 1 = 2
    t2 = table("GL", 2, 3)
    assert sum(1 for d in t2.degrees if d == 1) == 2


def test_fs_indicators_against_squaring_map(group, table):
    # Frobenius-Schur: sum over chi of fs(chi) * chi(g) counts square roots of g.
    for key in [("GL", 2, 2), ("SL", 2, 3), ("GL", 2, 3)]:
        ctx = group(*key)
        t = table(*key)
        roots = homcount.squaring_histogram(ctx)
        fs = np.array(t.fs_indicators, dtype=np.float64)
        for c in ctx.classes:
            val = fs @ t.values[:, c.index]
            assert abs(val.imag) < 1e-8
            assert round(val.real) == roots[c.rep_index]


def test_class_matrices_against_direct_count(group):
    ctx = group("GL", 2, 2)
    A = chartab.class_matrices(ctx)
    classes = ctx.classes
    cof = ctx.class_of
    for i, ci in enumerate(classes):
        for j, cj in enumerate(classes):
            for l, cl in enumerate(classes):
                direct = 0
                for u in np.nonzero(cof == i)[0]:
                    for v in np.nonzero(cof == j)[0]:
                        if ctx.index_of(ctx.element_at(u) @ ctx.element_at(v)) == cl.rep_index:
                            direct += 1
                assert A[i, j, l] == direct


def test_values_are_algebraic_integers_at_central_classes(table):
    # chi(z) / chi(1) is a root of unity for central z; for SL_2(F_3) the
    # center is {I, -I} so the ratio at -I is +-1.
    t = table("SL", 2, 3)
    minus_one = next(
        i for i, s in enumerate(t.class_sizes) if s == 1 and i != t.identity_class
    )
    ratios = t.values[:, minus_one].real / np.array(t.degrees)
    assert np.allclose(np.abs(ratios), 1, atol=1e-8)


def test_rep_zeta_special_values(table):
    t = table("SL", 2, 3)
    assert abs(chartab.rep_zeta(t, 0.0) - t.k) < 1e-9
    assert abs(chartab.rep_zeta(t, -2.0) - t.order) < 1e-9
    assert abs(chartab.rep_zeta(t, 2.0) - 1.0 - 2.8611) < 5e-4


def test_residual_certificate_is_small(table):
    for key in [("SL", 2, 3), ("GL", 2, 3), ("SL", 2, 7)]:
        t = table(*key)
        assert t.residual < 1e-8
        assert t.attempts >= 1


def test_table_cache_round_trip(tmp_path):
    import matgroups

    ctx = matgroups.group_build("SL", 2, matgroups.field_make(3))
    t1 = chartab.character_table(ctx, seed=0, cache_dir=str(tmp_path))
    t2 = chartab.character_table(ctx, seed=0, cache_dir=str(tmp_path))
    assert np.array_equal(t1.values, t2.values)
    assert t1.degrees == t2.degrees
    assert t1.fs_indicators == t2.fs_indicators


def test_chi_accessor(table):
    t = table("GL", 2, 2)
    assert t.chi(0, t.identity_class) == pytest.approx(t.degrees[0])
