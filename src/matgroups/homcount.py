"""Counting homomorphisms and word-equation solutions in built groups.

Two independent routes are kept side by side: closed-form class sums over a
character table, and exact integer counting by enumeration (full tuple scans
for small degree, pairwise product passes plus convolution identities for the
quadratic shapes).  Tests and the verify sweep compare the two.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import chartab, matgrp
from .errors import BadRange, BudgetExceeded, RoundingFailure

TUPLE_BUDGET = 10**8
SCAN_ORDER_BUDGET = 10**4  # pairwise passes are |G|^2
SCAN_BLOCK = 2**16  # tuples evaluated together in one vectorized block
ROUND_TOL = 1e-3


# ---------------------------------------------------------------------------
# words and presentations


def _reduce_letters(letters) -> tuple[tuple[int, int], ...]:
    out: list[tuple[int, int]] = []
    for g, s in letters:
        if out and out[-1][0] == g and out[-1][1] == -s:
            out.pop()
        else:
            out.append((g, s))
    return tuple(out)


@dataclass(frozen=True)
class Word:
    """A freely reduced word in generators x1, x2, ... (sign -1 = inverse)."""

    letters: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for g, s in self.letters:
            if not (isinstance(g, int) and g >= 1 and s in (1, -1)):
                raise BadRange(f"bad letter ({g}, {s})")
        object.__setattr__(self, "letters", _reduce_letters(self.letters))

    @property
    def max_gen(self) -> int:
        return max((g for g, _ in self.letters), default=0)

    def inverse(self) -> "Word":
        return Word(tuple((g, -s) for g, s in reversed(self.letters)))

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def __str__(self):
        if not self.letters:
            return "<empty>"
        return " ".join(f"x{g}" if s > 0 else f"X{g}" for g, s in self.letters)


def _parse_seq(s: str, i: int, depth: int):
    out: list[tuple[int, int]] = []
    n = len(s)
    while i < n:
        c = s[i]
        if c.isspace():
            i += 1
        elif c == "[":
            u, i = _parse_seq(s, i + 1, depth + 1)
            if i >= n or s[i] != ",":
                raise BadRange("expected ',' inside commutator brackets")
            v, i = _parse_seq(s, i + 1, depth + 1)
            if i >= n or s[i] != "]":
                raise BadRange("expected ']' closing commutator")
            i += 1
            inv_u = [(g, -sg) for g, sg in reversed(u)]
            inv_v = [(g, -sg) for g, sg in reversed(v)]
            out.extend(u + v + inv_u + inv_v)
        elif c in "xX":
            j = i + 1
            while j < n and s[j].isdigit():
                j += 1
            if j == i + 1:
                raise BadRange(f"generator letter at position {i} has no index")
            out.append((int(s[i + 1 : j]), 1 if c == "x" else -1))
            i = j
        elif c in ",]" and depth > 0:
            break
        else:
            raise BadRange(f"unexpected character {c!r} in word")
    return out, i


def parse_word(text: str) -> Word:
    """Parse words like "x1 x2 X1 X2" or "[x1,x2] x3"; X = inverse letter."""
    letters, i = _parse_seq(text, 0, 0)
    if i != len(text):
        raise BadRange(f"unparsed suffix {text[i:]!r}")
    return Word(tuple(letters))


@dataclass(frozen=True)
class Presentation:
    """A finite presentation <x1..xd | relators>."""

    generators: int
    relators: tuple[Word, ...]

    def __post_init__(self):
        if not (isinstance(self.generators, int) and self.generators >= 0):
            raise BadRange("generator count must be a nonnegative integer")
        rels = tuple(
            r if isinstance(r, Word) else parse_word(r) for r in self.relators
        )
        for r in rels:
            if r.max_gen > self.generators:
                raise BadRange(f"relator {r} uses more than {self.generators} generators")
        object.__setattr__(self, "relators", rels)


def surface_presentation(genus: int) -> Presentation:
    """pi_1 of the closed orientable surface of the given genus."""
    if genus < 1:
        raise BadRange("genus must be >= 1")
    rel = " ".join(f"[x{2 * i + 1},x{2 * i + 2}]" for i in range(genus))
    return Presentation(2 * genus, (parse_word(rel),))


def squares_presentation(m: int) -> Presentation:
    """<x1..xm | x1^2 ... xm^2>, the nonorientable surface group for m >= 1."""
    if m < 1:
        raise BadRange("m must be >= 1")
    rel = " ".join(f"x{i} x{i}" for i in range(1, m + 1))
    return Presentation(m, (parse_word(rel),))


def recognize_surface_genus(pres: Presentation) -> int | None:
    if len(pres.relators) != 1 or pres.generators % 2:
        return None
    g = pres.generators // 2
    if g >= 1 and pres.relators[0] == surface_presentation(g).relators[0]:
        return g
    return None


def recognize_squares_m(pres: Presentation) -> int | None:
    if len(pres.relators) != 1:
        return None
    m = pres.generators
    if m >= 1 and pres.relators[0] == squares_presentation(m).relators[0]:
        return m
    return None


# ---------------------------------------------------------------------------
# scan kernels (exact, character-free)


class ScanKernel:
    """Index-level composition over a GroupContext, with its Cayley table built."""

    def __init__(self, ctx: matgrp.GroupContext):
        self.ctx = ctx
        self.inv = ctx.inv_idx
        self.cayley = ctx.cayley

    def compose(self, a, b):
        out = self.ctx.mul(a, b)
        return int(out) if np.ndim(out) == 0 else out

    def eval_word_vec(self, word: Word, assign: list, vec_gen: int, vec: np.ndarray):
        """Evaluate word at assign (ints or index arrays), with vec for vec_gen."""
        state = None  # None means the identity
        for g, s in word.letters:
            val = vec if g == vec_gen else assign[g - 1]
            if s < 0:
                val = self.inv[val]
            state = val if state is None else self.compose(state, val)
        if state is None:
            return np.full(len(vec), self.ctx.identity_index, dtype=np.int64)
        if np.isscalar(state) or np.ndim(state) == 0:
            return np.full(len(vec), int(state), dtype=np.int64)
        return state


def _check_tuple_budget(order: int, d: int):
    if order**d > TUPLE_BUDGET:
        raise BudgetExceeded(f"{order}^{d} tuples exceeds budget {TUPLE_BUDGET}")


def _scan_blocks(ctx: matgrp.GroupContext, words, d: int):
    """Values of the words over all of G^d (d >= 1), one block at a time.

    The last k generators run vectorized over the N^k tuples of a block, k >= 1
    the largest with N^k <= SCAN_BLOCK; the leading d - k stay Python ints.
    Each block is a list with one index array per word.
    """
    _check_tuple_budget(ctx.order, d)
    kern = ScanKernel(ctx)
    N = ctx.order
    k = 1
    while k < d and N ** (k + 1) <= SCAN_BLOCK:
        k += 1
    tail = list(np.indices((N,) * k, dtype=np.int64).reshape(k, -1))
    return (
        [kern.eval_word_vec(w, [*head, *tail], d, tail[-1]) for w in words]
        for head in itertools.product(range(N), repeat=d - k)
    )


def word_histogram(ctx: matgrp.GroupContext, word: Word) -> np.ndarray:
    """#{tuples t : word(t) = z} for every element z, by full scan."""
    hist = np.zeros(ctx.order, dtype=np.int64)
    if word.max_gen == 0:
        # the empty word has the single empty assignment
        hist[ctx.identity_index] = 1
        return hist
    for (vals,) in _scan_blocks(ctx, [word], word.max_gen):
        hist += np.bincount(vals, minlength=ctx.order)
    return hist


def hom_count_bruteforce(pres: Presentation, ctx: matgrp.GroupContext) -> int:
    """Count homomorphisms from the presented group by scanning tuples.

    A single relator ending in a generator that occurs exactly once in it
    determines that generator, so those presentations are counted without
    scanning.
    """
    d = pres.generators
    if d == 0:
        return 1
    if not pres.relators:
        return ctx.order**d
    if len(pres.relators) == 1:
        rel = pres.relators[0]
        if rel.letters:
            last_gen = rel.letters[-1][0]
            if sum(1 for g, _ in rel.letters if g == last_gen) == 1:
                return ctx.order ** (d - 1)
        else:
            return ctx.order**d
    ident = ctx.identity_index
    return sum(
        int(np.logical_and.reduce([vals == ident for vals in block]).sum())
        for block in _scan_blocks(ctx, pres.relators, d)
    )


# -- quadratic-shape oracles built from |G|^2 passes


def _check_scan_budget(ctx: matgrp.GroupContext):
    if ctx.order > SCAN_ORDER_BUDGET:
        raise BudgetExceeded(
            f"|G| = {ctx.order} exceeds pairwise scan budget {SCAN_ORDER_BUDGET}"
        )


def commutator_histogram(ctx: matgrp.GroupContext) -> np.ndarray:
    """#{(x,y) : x y x^-1 y^-1 = z} for every z, one |G|^2 pass."""
    _check_scan_budget(ctx)
    kern = ScanKernel(ctx)
    N = ctx.order
    inv = kern.inv
    all_idx = np.arange(N, dtype=np.int64)
    hist = np.zeros(N, dtype=np.int64)
    for x in range(N):
        xy = kern.compose(x, all_idx)
        tail = kern.compose(int(inv[x]), inv[all_idx])
        comm = kern.compose(xy, tail)
        np.add.at(hist, comm, 1)
    return hist


def squaring_histogram(ctx: matgrp.GroupContext) -> np.ndarray:
    """#{x : x^2 = z} for every z."""
    kern = ScanKernel(ctx)
    all_idx = np.arange(ctx.order, dtype=np.int64)
    sq = kern.compose(all_idx, all_idx)
    hist = np.zeros(ctx.order, dtype=np.int64)
    np.add.at(hist, sq, 1)
    return hist


def element_convolution(ctx: matgrp.GroupContext, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """(f * g)(z) = sum_u f(u) g(u^-1 z), exactly.

    Every partial sum is at most max|f| * sum|g| in size; below 2^63 the
    convolution runs in int64, otherwise in Python ints (dtype object).
    """
    _check_scan_budget(ctx)
    kern = ScanKernel(ctx)
    N = ctx.order
    all_idx = np.arange(N, dtype=np.int64)
    bound = max(abs(int(v)) for v in f) * sum(abs(int(v)) for v in g)
    dtype = np.int64 if bound < 2**63 else object
    g = np.asarray(g, dtype=dtype)
    out = np.zeros(N, dtype=dtype)
    for u in range(N):
        fu = int(f[u])
        if fu:
            out += fu * g[kern.compose(int(kern.inv[u]), all_idx)]
    return out


def oracle_commutator_counts(ctx: matgrp.GroupContext) -> np.ndarray:
    """Commutator fiber sizes as a per-class vector (constant on classes)."""
    hist = commutator_histogram(ctx)
    return _class_vector(ctx, hist)


def oracle_surface_count(ctx: matgrp.GroupContext, genus: int) -> int:
    """|Hom(surface group of the genus, G)| by convolving commutator fibers."""
    if genus < 1:
        raise BadRange("genus must be >= 1")
    base = commutator_histogram(ctx)
    acc = base
    for _ in range(genus - 1):
        acc = element_convolution(ctx, acc, base)
    return int(acc[ctx.identity_index])


def oracle_squares_histogram(ctx: matgrp.GroupContext, m: int) -> np.ndarray:
    """#{(x1..xm) : x1^2 ... xm^2 = z} for every z."""
    if m < 1:
        raise BadRange("m must be >= 1")
    base = squaring_histogram(ctx)
    acc = base
    for _ in range(m - 1):
        acc = element_convolution(ctx, acc, base)
    return acc


def oracle_quad_count(ctx: matgrp.GroupContext, class_indices) -> int:
    """#{(a,b,c,d) in C1 x C2 x C3 x C4 : abcd = 1}, exactly."""
    c1, c2, c3, c4 = class_indices
    cof = ctx.class_of
    ind = [np.asarray(cof == c, dtype=np.int64) for c in (c1, c2, c3, c4)]
    w12 = element_convolution(ctx, ind[0], ind[1])
    w34 = element_convolution(ctx, ind[2], ind[3])
    inv = ctx.inv_idx
    return int(np.sum(w12 * w34[inv]))


def _class_vector(ctx: matgrp.GroupContext, hist: np.ndarray) -> np.ndarray:
    """Collapse a per-element class function to one value per class."""
    k = len(ctx.classes)
    sums = np.zeros(k, dtype=np.int64)
    np.add.at(sums, ctx.class_of, hist)
    sizes = np.array([c.size for c in ctx.classes], dtype=np.int64)
    if (sums % sizes).any():
        raise AssertionError("histogram is not a class function")
    return sums // sizes


# ---------------------------------------------------------------------------
# character-sum formulas


def _round_certified(value: complex) -> int:
    value = complex(value)
    target = float(np.rint(value.real))
    resid = abs(value - target)
    if resid > ROUND_TOL * max(1.0, abs(target)):
        raise RoundingFailure(f"count {value} is {resid:.2e} away from integer {target}")
    return int(target)


def _class_index(table: chartab.CharacterTable, h) -> int:
    if isinstance(h, matgrp.MatrixElement):
        return table.ctx.class_index_of(h)
    h = int(h)
    if not 0 <= h < table.k:
        raise BadRange(f"class index {h} out of range")
    return h


def commutator_count(table: chartab.CharacterTable, h) -> int:
    """#{(x,y) : [x,y] = z} for z in class h, via |G| sum chi(z)/chi(1)."""
    l = _class_index(table, h)
    degs = np.array(table.degrees, dtype=np.float64)
    total = table.order * np.sum(table.values[:, l] / degs)
    return _round_certified(total)


def surface_hom_count(table: chartab.CharacterTable, genus: int) -> int:
    """|Hom(pi_1(Sigma_genus), G)| = |G|^(2g-1) sum chi(1)^(2-2g)."""
    if genus < 1:
        raise BadRange("genus must be >= 1")
    degs = np.array(table.degrees, dtype=np.float64)
    total = float(table.order) ** (2 * genus - 1) * np.sum(degs ** (2 - 2 * genus))
    return _round_certified(total)


def fs_squares_count(table: chartab.CharacterTable, m: int, h) -> int:
    """#{(x1..xm) : x1^2...xm^2 = z} = |G|^(m-1) sum iota^m chi(z)/chi(1)^(m-1)."""
    if m < 1:
        raise BadRange("m must be >= 1")
    l = _class_index(table, h)
    degs = np.array(table.degrees, dtype=np.float64)
    iotas = np.array(table.fs_indicators, dtype=np.float64)
    total = float(table.order) ** (m - 1) * np.sum(
        (iotas**m) * table.values[:, l] / degs ** (m - 1)
    )
    return _round_certified(total)


def quad_class_count(table: chartab.CharacterTable, class_indices) -> int:
    """#{(x1..x4) in C1 x..x C4 : x1 x2 x3 x4 = 1} by the class-sum formula."""
    idx = [_class_index(table, c) for c in class_indices]
    if len(idx) != 4:
        raise BadRange("need exactly four classes")
    degs = np.array(table.degrees, dtype=np.float64)
    sizes = np.array(table.class_sizes, dtype=np.float64)
    prod = np.ones(table.k, dtype=np.complex128)
    for l in idx:
        prod = prod * table.values[:, l]
    total = float(np.prod([sizes[l] for l in idx])) / table.order * np.sum(prod / degs**2)
    return _round_certified(total)
