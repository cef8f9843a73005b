"""Grassmannian counts, fixed subspaces of semisimple operators, value bounds.

The subspace counts run over extension-field isotypic components and reduce
to products of Gaussian binomials; a direct row-echelon enumeration of small
spaces doubles as the oracle.  The character bound |chi(x)| <= chi(1)^beta is
scanned over full tables; violations are returned as data because the bound
only promises anything for large fields.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import chartab, ff, matgrp
from .errors import BadRange, NotSemisimple

VALUE_EPS = 1e-9
SLACK_PER_FACTOR = 1


def gaussian_binomial(a: int, w: int, q: int) -> int:
    """Number of w-dimensional subspaces of F_q^a, exactly."""
    if not all(isinstance(v, int) for v in (a, w, q)) or q < 2:
        raise BadRange("arguments must be integers with q >= 2")
    if not 0 <= w <= a:
        raise BadRange(f"need 0 <= w <= a, got w={w}, a={a}")
    num = 1
    den = 1
    for j in range(w):
        num *= q ** (a - j) - 1
        den *= q ** (j + 1) - 1
    count, rem = divmod(num, den)
    if rem:
        raise AssertionError("Gaussian binomial did not divide exactly")
    return count


def _isotypic_pairs(T: matgrp.MatrixElement) -> tuple[tuple[int, int], ...]:
    _, semisimple, pairs = matgrp.matrix_invariants(T)
    if not semisimple:
        raise NotSemisimple("matrix has a repeated factor in its minimal polynomial")
    return pairs


def fixed_subspace_count(T: matgrp.MatrixElement, s: int) -> int:
    """#{s-dimensional subspaces W of F_q^n with T(W) = W}, exactly.

    Invariant subspaces split along the isotypic decomposition; the component
    for a degree-b factor with multiplicity a is an a-dimensional space over
    F_{q^b}, contributing G(a, w)(F_{q^b}) choices of F_q-dimension b*w.
    """
    _check_dimension(T, s)
    return _subspace_count(_isotypic_pairs(T), s, _gaussian_weight(T.field.q))


def _check_dimension(T: matgrp.MatrixElement, s: int):
    if not isinstance(s, int) or not 0 <= s <= T.n:
        raise BadRange(f"subspace dimension must lie in [0, {T.n}]")


def _gaussian_weight(q: int):
    return lambda b, a, w: gaussian_binomial(a, w, q**b)


def _subspace_count(pairs, s: int, weight) -> int:
    """Sum over w_i in [0, a_i] with sum b_i w_i = s of prod weight(b_i, a_i, w_i)."""
    ways = {0: 1}
    for b, a in pairs:
        nxt: dict[int, int] = {}
        for acc, cnt in ways.items():
            for w in range(a + 1):
                dim = acc + b * w
                if dim > s:
                    break
                nxt[dim] = nxt.get(dim, 0) + cnt * weight(b, a, w)
        ways = nxt
    return ways.get(s, 0)


class FixedSubspaceBound(NamedTuple):
    count: int
    exponent: float  # log_q of the count
    bound: float  # m*s plus the slack term
    holds: bool


def fixed_subspace_bound_check(T: matgrp.MatrixElement, s: int) -> FixedSubspaceBound:
    """Compare log_q of the fixed-subspace count against m*s plus slack.

    m is the maximal eigenvalue multiplicity; the slack is log_q of the
    number of admissible dimension vectors plus one per isotypic factor,
    covering the constant in each Gaussian-binomial estimate.
    """
    _check_dimension(T, s)
    pairs = _isotypic_pairs(T)
    q = T.field.q
    count = _subspace_count(pairs, s, _gaussian_weight(q))
    m = max(mult for _, mult in pairs)
    nvec = _subspace_count(pairs, s, lambda b, a, w: 1)
    bound = m * s + math.log(max(nvec, 1), q) + SLACK_PER_FACTOR * len(pairs)
    exponent = math.log(count, q) if count > 0 else -math.inf
    return FixedSubspaceBound(count, exponent, bound, exponent <= bound + 1e-9)


# ---------------------------------------------------------------------------
# brute-force subspace oracle


def all_subspaces_rref(field: ff.FieldSpec, n: int, s: int):
    """Every s-dimensional subspace of F_q^n as an RREF row tuple."""
    if not 0 <= s <= n:
        raise BadRange(f"subspace dimension must lie in [0, {n}]")
    if s == 0:
        return [()]
    codes = list(range(field.q))
    out = []
    for pivots in itertools.combinations(range(n), s):
        pivot_set = set(pivots)
        free_pos = [
            (i, c)
            for i in range(s)
            for c in range(pivots[i] + 1, n)
            if c not in pivot_set
        ]
        for fill in itertools.product(codes, repeat=len(free_pos)):
            rows = [[0] * n for _ in range(s)]
            for i, p in enumerate(pivots):
                rows[i][p] = 1
            for (i, c), v in zip(free_pos, fill):
                rows[i][c] = v
            out.append(tuple(tuple(r) for r in rows))
    return out


def _reduce_against(field: ff.FieldSpec, vec: list[int], rows, pivots) -> bool:
    """Eliminate vec with the RREF rows; True when it lands in the row space."""
    v = list(vec)
    for row, p in zip(rows, pivots):
        if v[p]:
            f = v[p]
            for j in range(len(v)):
                v[j] = field.sub_code(v[j], field.mul_code(f, row[j]))
    return not any(v)


def fixed_subspace_bruteforce(T: matgrp.MatrixElement, s: int) -> int:
    """Oracle for fixed_subspace_count by scanning all RREF bases."""
    field, n = T.field, T.n
    if not isinstance(s, int) or not 0 <= s <= n:
        raise BadRange(f"subspace dimension must lie in [0, {n}]")
    X = T.as_array()
    total = 0
    for rows in all_subspaces_rref(field, n, s):
        pivots = [next(j for j, v in enumerate(r) if v) for r in rows]
        ok = True
        for r in rows:
            img = [0] * n
            for i in range(n):
                acc = 0
                for j in range(n):
                    acc = field.add_code(acc, field.mul_code(int(X[i, j]), r[j]))
                img[i] = acc
            if not _reduce_against(field, img, rows, pivots):
                ok = False
                break
        total += ok
    return total


# ---------------------------------------------------------------------------
# semisimple class representatives without group enumeration


def _block_diag(field: ff.FieldSpec, blocks) -> matgrp.MatrixElement:
    n = sum(b.n for b in blocks)
    codes = [0] * (n * n)
    off = 0
    for b in blocks:
        arr = b.as_array()
        for i in range(b.n):
            for j in range(b.n):
                codes[(off + i) * n + (off + j)] = int(arr[i, j])
        off += b.n
    return matgrp.MatrixElement(field, n, codes)


def irreducible_polys(field: ff.FieldSpec, max_degree: int):
    """Monic irreducibles of degree <= max_degree with nonzero constant term."""
    out = []
    for d in range(1, max_degree + 1):
        for f in ff._monic_polys(field, d):
            if f[0] != 0 and ff.poly_is_irreducible(field, f):
                out.append(f)
    return out


def semisimple_representatives(field: ff.FieldSpec, n: int):
    """One representative per semisimple class of GL_n(F_q).

    Classes correspond to multisets of irreducible factors (never x) with
    degrees and multiplicities summing to n; the representative is a block
    diagonal of repeated companion blocks.
    """
    if not isinstance(n, int) or n < 1:
        raise BadRange("n must be a positive integer")
    polys = irreducible_polys(field, n)
    reps = []

    def assign(idx: int, remaining: int, chosen):
        if remaining == 0:
            blocks = []
            for f, mult in chosen:
                blocks.extend([matgrp.companion_matrix(field, f)] * mult)
            reps.append((tuple(chosen), _block_diag(field, blocks)))
            return
        if idx == len(polys):
            return
        deg = len(polys[idx]) - 1
        assign(idx + 1, remaining, chosen)
        for mult in range(1, remaining // deg + 1):
            assign(idx + 1, remaining - mult * deg, chosen + [(polys[idx], mult)])

    assign(0, n, [])
    reps.sort(key=lambda t: t[0])
    return reps


# ---------------------------------------------------------------------------
# character bound scan


@dataclass(frozen=True)
class ClassBoundRow:
    class_index: int
    max_multiplicity: int
    max_ratio: float  # max over nonlinear chi of log|chi(x)| / log chi(1)
    schur_consistent: bool  # every |chi(x)| <= sqrt(centralizer order)


@dataclass(frozen=True)
class BoundCheckReport:
    group_key: str
    alpha: float
    beta: float
    params_within_theorem: bool  # alpha < beta^2 / (1 + 2 beta)
    multiplicity_gate: float
    rows: tuple[ClassBoundRow, ...]
    violations: tuple[tuple[int, int, float], ...]  # (class, char row, ratio)
    linear_abs_max: float


def character_bound_check(
    ctx: matgrp.GroupContext,
    table: chartab.CharacterTable,
    alpha: float,
    beta: float,
) -> BoundCheckReport:
    """Scan |chi(x)| <= chi(1)^beta over gated semisimple classes.

    The gate admits classes whose maximal eigenvalue multiplicity is at most
    max(1, alpha*n); with it strictly alpha*n nothing at all qualifies for
    n = 2 and the sub-half alphas the sweeps use, so the regular semisimple
    classes the statement targets are kept.  Violations are data, not errors.
    """
    if ctx.kind != "GL":
        raise BadRange("character bound scan is stated for GL_n groups")
    if table.ctx is not ctx:
        raise BadRange("table does not belong to the given group")
    alpha = float(alpha)
    beta = float(beta)
    if not (0 < alpha and 0 < beta):
        raise BadRange("alpha and beta must be positive")
    gate = max(1.0, alpha * ctx.n)
    degrees = np.array(table.degrees, dtype=np.float64)
    nonlinear = degrees > 1
    rows = []
    violations = []
    linear_abs_max = 0.0
    for info in ctx.classes:
        if not info.is_semisimple:
            continue
        if info.max_eigenvalue_multiplicity > gate:
            continue
        col = np.abs(table.values[:, info.index])
        if (~nonlinear).any():
            linear_abs_max = max(linear_abs_max, float(col[~nonlinear].max()))
        ceil = math.sqrt(info.centralizer_order)
        schur_ok = bool((col <= ceil + 1e-6).all())
        ratios = np.full(len(col), -np.inf)
        big = nonlinear & (col > VALUE_EPS)
        ratios[big] = np.log(col[big]) / np.log(degrees[big])
        max_ratio = float(ratios[nonlinear].max()) if nonlinear.any() else -math.inf
        rows.append(
            ClassBoundRow(
                class_index=info.index,
                max_multiplicity=info.max_eigenvalue_multiplicity,
                max_ratio=max_ratio,
                schur_consistent=schur_ok,
            )
        )
        for ci in np.flatnonzero(big):
            if col[ci] > degrees[ci] ** beta * (1 + 1e-9):
                violations.append((info.index, int(ci), float(ratios[ci])))
    return BoundCheckReport(
        group_key=f"{ctx.kind}{ctx.n}(F_{ctx.field.q})",
        alpha=alpha,
        beta=beta,
        params_within_theorem=alpha < beta**2 / (1 + 2 * beta),
        multiplicity_gate=gate,
        rows=tuple(rows),
        violations=tuple(violations),
        linear_abs_max=linear_abs_max,
    )
