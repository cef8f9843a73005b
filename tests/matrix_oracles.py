"""Independent oracles for matrix invariants: principal minors and minimal polynomials."""

import itertools

import numpy as np

from matgroups import ff, matgrp


def char_poly_by_minors(field, X):
    """Char polys det(xI - X) of a batch X (N, n, n), as code tuples.

    The coefficient of x^(n-k) is (-1)^k times the sum of the k x k principal
    minors, each one permutation-expansion determinant.
    """
    N, n = X.shape[0], X.shape[-1]
    coeffs = np.zeros((N, n + 1), dtype=np.int64)
    coeffs[:, n] = 1
    for k in range(1, n + 1):
        ek = np.zeros(N, dtype=np.int64)
        for subset in itertools.combinations(range(n), k):
            ek = field.vec_add(ek, matgrp.vec_det(field, X[:, list(subset)][:, :, list(subset)]))
        coeffs[:, n - k] = field.vec_neg(ek) if k % 2 else ek
    return [tuple(int(c) for c in row) for row in coeffs]


def min_poly(T):
    """Minimal polynomial via the first linear dependency among powers of T."""
    spec, n = T.field, T.n
    dim = n * n
    # reduced rows of seen powers, with the combination that produced them
    basis: list[tuple[list[int], list[int]]] = []
    power = matgrp.identity_element(spec, n)
    for d in range(n + 1):
        vec = list(power.codes)
        comb = [0] * (n + 2)
        comb[d] = 1
        for row, rcomb in basis:
            pivot = next(i for i, c in enumerate(row) if c)
            if vec[pivot]:
                factor = spec.mul_code(vec[pivot], spec.inv_code(row[pivot]))
                for i in range(dim):
                    vec[i] = spec.sub_code(vec[i], spec.mul_code(factor, row[i]))
                for i in range(len(comb)):
                    rc = rcomb[i] if i < len(rcomb) else 0
                    comb[i] = spec.sub_code(comb[i], spec.mul_code(factor, rc))
        if not any(vec):
            return ff.poly_monic(spec, ff.poly_trim(comb))
        basis.append((vec, comb))
        power = power @ T
    raise AssertionError("no dependency among n+1 matrix powers")


def is_semisimple_by_min_poly(T) -> bool:
    return ff.poly_is_squarefree(T.field, min_poly(T))


def eigenvalue_multiplicities_by_factoring(T):
    """(degree, multiplicity) pairs of the factors of the minors char poly."""
    cp = char_poly_by_minors(T.field, T.as_array()[None])[0]
    return tuple(sorted((len(f) - 1, mult) for f, mult in ff.poly_factor(T.field, cp)))
