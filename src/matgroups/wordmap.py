"""Word maps on tuples: evaluation, fibers, dimension fits, dominance stats.

The dimension estimate treats the exact count |{t : relations hold}| as the
point count of a variety over F_q and fits log count against log q.  A fit
through the origin is used: the model is count ~ c * q^dim with c of moderate
size, so the line is forced through (0, 0) and the intercept is read off
separately as count / q^dim at the largest sampled q.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import chartab, ff, homcount, matgrp
from .errors import BadRange, BudgetExceeded, SpecMismatch
from .homcount import Presentation, ScanKernel, Word

LEADING_COEFF_BAND = (0.5, 1.5)
CT_ORDER_BUDGET = 10**4


def eval_word(w: Word, elements) -> matgrp.MatrixElement:
    """Multiply out the word at the given tuple of matrices."""
    elements = list(elements)
    if not elements:
        raise SpecMismatch("need at least one element to fix the group")
    field, n = elements[0].field, elements[0].n
    for e in elements:
        if not isinstance(e, matgrp.MatrixElement) or e.field != field or e.n != n:
            raise SpecMismatch("tuple entries live in different groups")
    if w.max_gen > len(elements):
        raise SpecMismatch(
            f"word uses x{w.max_gen} but only {len(elements)} elements given"
        )
    acc = matgrp.identity_element(field, n)
    for g, s in w.letters:
        e = elements[g - 1]
        acc = acc @ (e if s > 0 else matgrp.mat_inv(e))
    return acc


def fiber_count(w: Word, ctx: matgrp.GroupContext, target: matgrp.MatrixElement) -> int:
    """Exact #{t in G^d : w(t) = target}, read off the word's histogram."""
    hist = homcount.word_histogram(ctx, w)
    return int(hist[ctx.index_of(target)])


# ---------------------------------------------------------------------------
# dimension estimation


@dataclass(frozen=True)
class CountProfile:
    """Exact hom counts across a q sweep plus the fitted growth exponent."""

    presentation: Presentation
    kind: str
    n: int
    samples: tuple[tuple[int, int], ...]  # (q, exact count), q increasing
    fitted_dimension: float
    fitted_leading_coefficient: float
    irreducibility_consistent: bool
    method: str


def _hom_count_exact(
    pres: Presentation,
    kind: str,
    n: int,
    q: int,
    seed: int,
    cache_dir: str | None,
) -> tuple[int, str]:
    """Count homs into kind_n(F_q), preferring closed character formulas."""
    if not pres.relators:
        order = matgrp.group_order(kind, n, q)
        return order**pres.generators, "free"
    ctx = matgrp.group_build(kind, n, ff.field_make_q(q), cache_dir=cache_dir)
    genus = homcount.recognize_surface_genus(pres)
    if genus is not None:
        table = chartab.character_table(ctx, seed=seed, cache_dir=cache_dir)
        return homcount.surface_hom_count(table, genus), "character-formula"
    m = homcount.recognize_squares_m(pres)
    if m is not None:
        table = chartab.character_table(ctx, seed=seed, cache_dir=cache_dir)
        return (
            homcount.fs_squares_count(table, m, table.identity_class),
            "character-formula",
        )
    return homcount.hom_count_bruteforce(pres, ctx), "scan"


def dimension_estimate(
    pres: Presentation,
    family: tuple[str, int],
    qs,
    seed: int = 0,
    cache_dir: str | None = None,
) -> CountProfile:
    """Fit count ~ c * q^dim over exact counts at each q in the sweep."""
    kind, n = family
    qs = [int(q) for q in qs]
    if len(qs) < 3:
        raise BadRange("need at least 3 sample fields for a dimension fit")
    if any(b <= a for a, b in zip(qs, qs[1:])):
        raise BadRange("q values must be strictly increasing")
    samples = []
    methods = set()
    for q in qs:
        count, method = _hom_count_exact(pres, kind, n, q, seed, cache_dir)
        samples.append((q, count))
        methods.add(method)
    logs_q = np.log([q for q, _ in samples])
    logs_c = np.log([max(c, 1) for _, c in samples])
    dim = float(np.dot(logs_q, logs_c) / np.dot(logs_q, logs_q))
    q_max, c_max = samples[-1]
    coeff = float(c_max / q_max ** round(dim))
    lo, hi = LEADING_COEFF_BAND
    return CountProfile(
        presentation=pres,
        kind=kind,
        n=n,
        samples=tuple(samples),
        fitted_dimension=dim,
        fitted_leading_coefficient=coeff,
        irreducibility_consistent=lo <= coeff <= hi,
        method="+".join(sorted(methods)),
    )


# ---------------------------------------------------------------------------
# double-word dominance diagnostic


def double_word_stats(w1: Word, w2: Word, ctx: matgrp.GroupContext) -> tuple[int, float]:
    """Size of {(w1(t), w2(t))} over all tuples, and its fraction of |G|^2.

    An image set has no class weights, so x1 runs over every element.
    """
    N = ctx.order
    every = [(x, 1) for x in range(N)]
    blocks = homcount._scan_blocks(ctx, [w1, w2], max(w1.max_gen, w2.max_gen, 1), every)
    seen = np.zeros(N * N, dtype=bool)
    for _, (v1, v2) in blocks:
        seen[v1 * N + v2] = True
    image = int(seen.sum())
    return image, image / float(N) ** 2


# ---------------------------------------------------------------------------
# commutative transitivity


def _pairwise(kern: ScanKernel, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All products a_i b_j as a len(a) x len(b) index matrix."""
    prod = kern.compose(np.repeat(a, len(b)), np.tile(b, len(a)))
    return np.asarray(prod).reshape(len(a), len(b))


def _centralizer_members(kern: ScanKernel, b: int) -> np.ndarray:
    all_idx = np.arange(kern.ctx.order, dtype=np.int64)
    return np.flatnonzero(kern.compose(b, all_idx) == kern.compose(all_idx, b))


def _centralizer_abelian_part(ctx: matgrp.GroupContext, kern: ScanKernel) -> bool:
    """Every noncentral element has an abelian centralizer.

    Centralizers of conjugate elements are conjugate, so one representative
    per class covers the group.  Central members never break abelianness, so
    the whole centralizer is checked without filtering them out.
    """
    N = ctx.order
    for info in ctx.classes:
        members = _centralizer_members(kern, info.rep_index)
        if len(members) == N:
            continue
        sub = _pairwise(kern, members, members)
        if not (sub == sub.T).all():
            return False
    return True


def _hom_kill_part(ctx: matgrp.GroupContext, kern: ScanKernel) -> bool:
    """Verify [[a1,a2],[b,c]] dies whenever a1 and a2 commute with b.

    b runs over class representatives (the condition is conjugation
    invariant) and central b are skipped since [b,c] is already trivial.
    The distinct commutator values [a1,a2] over the centralizer of b are
    each checked against every [b,c] in one vectorized pass.
    """
    N = ctx.order
    inv = kern.inv
    all_idx = np.arange(N, dtype=np.int64)
    for info in ctx.classes:
        b = info.rep_index
        members = _centralizer_members(kern, b)
        if len(members) == N:
            continue
        bc = kern.compose(kern.compose(b, all_idx), kern.compose(int(inv[b]), inv[all_idx]))
        prods = _pairwise(kern, members, members)
        tails = _pairwise(kern, inv[members], inv[members])
        seen = np.zeros(N, dtype=bool)
        seen[kern.compose(prods.reshape(-1), tails.reshape(-1))] = True
        for u in np.flatnonzero(seen):
            if not (kern.compose(int(u), bc) == kern.compose(bc, int(u))).all():
                return False
    return True


def commutative_transitivity_check(ctx: matgrp.GroupContext) -> bool:
    """Check that commuting is transitive away from the center.

    Also verifies, over all constrained 4-tuples (a1, a2, b, c) with a1 and
    a2 commuting with b, that [[a1, a2], [b, c]] is trivial.
    """
    if ctx.n != 2 or ctx.field.p == 2:
        raise BadRange("check is defined for 2x2 groups over odd-characteristic fields")
    if ctx.order > CT_ORDER_BUDGET:
        raise BudgetExceeded(f"|G| = {ctx.order} exceeds {CT_ORDER_BUDGET}")
    kern = ScanKernel(ctx)
    return _centralizer_abelian_part(ctx, kern) and _hom_kill_part(ctx, kern)
