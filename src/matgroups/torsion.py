"""Torsion-class combinatorics over F_ell: the sets B_k, A_n, and witnesses.

Everything here is label-level arithmetic in F_ell.  Eigenvalues psi(x)^j are
never materialized as complex numbers; a class is its multiplicity function
and the identities needed (zero sums, translates, unions) are exact integer
statements mod ell.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

from .errors import BadPrime, BadRange, BudgetExceeded, NoWitness
from .ff import is_prime

ALPHA = Fraction(1, 10)
SUBSET_BUDGET = 2 * 10**6
QUADRILATERAL_MIN_ELL = 19


def _check_ell(ell: int):
    if not isinstance(ell, int) or not is_prime(ell):
        raise BadPrime(f"{ell} is not prime")
    if ell % 3 != 1:
        raise BadPrime(f"{ell} is not 1 mod 3, so F_{ell}^x has no order-3 subgroup")


@lru_cache(maxsize=None)
def mu3(ell: int) -> tuple[int, int, int]:
    """The unique 3-element subgroup of F_ell^x, as a sorted tuple."""
    _check_ell(ell)
    for a in range(2, ell):
        if a * a * a % ell == 1:
            return tuple(sorted((1, a, a * a % ell)))
    raise AssertionError("order-3 element must exist when ell = 1 mod 3")


def contains_affine_mu3(ell: int, subset) -> bool:
    """Whether some t*mu3 + c with t != 0 is contained in the subset.

    Two points fix such a triple: with a = c + t and b = c + t*w for a
    primitive cube root w, the third point c + t*w^2 is a + (b - a)(w + 1).
    Entries outside [0, ell) never belong to a triple.
    """
    s = {x for x in subset if 0 <= x < ell}
    w1 = mu3(ell)[1] + 1
    return any(a != b and (a + (b - a) * w1) % ell in s for a in s for b in s)


def in_b_k(ell: int, subset) -> bool:
    """Membership test for B_k where k = |subset|, without enumerating B_k."""
    s = set(subset)
    k = len(s)
    if not 0 <= k <= ell - 1:
        return False
    if any(not (0 <= x < ell) for x in s):
        raise BadRange("subset entries must be reduced mod ell")
    if sum(s) % ell != 0:
        return False
    if k >= 3 and not contains_affine_mu3(ell, s):
        return False
    return True


def b_k(ell: int, k: int) -> list[tuple[int, ...]]:
    """All of B_k, sorted: zero-sum k-subsets (affine mu3 required for k >= 3)."""
    _check_ell(ell)
    if not isinstance(k, int) or not 0 <= k <= ell - 1:
        raise BadRange(f"k must lie in [0, {ell - 1}]")
    if k == 0:
        return [()]
    if k == 3:
        # every affine image t*mu3 + c sums to 3c, so zero-sum forces c = 0
        seen = {tuple(sorted(t * u % ell for u in mu3(ell))) for t in range(1, ell)}
        return sorted(seen)
    if comb(ell, k) > SUBSET_BUDGET:
        raise BudgetExceeded(f"C({ell},{k}) subsets exceed budget {SUBSET_BUDGET}")
    out = []
    for combo in itertools.combinations(range(ell), k):
        if sum(combo) % ell:
            continue
        if k >= 3 and not contains_affine_mu3(ell, combo):
            continue
        out.append(combo)
    return out


@dataclass(frozen=True)
class MultiplicityFunction:
    """Eigenvalue multiplicities f: F_ell -> Z>=0, the label form of a class."""

    ell: int
    values: tuple[int, ...]

    def __post_init__(self):
        _check_ell(self.ell)
        vals = tuple(int(v) for v in self.values)
        if len(vals) != self.ell or any(v < 0 for v in vals):
            raise BadRange(f"need {self.ell} nonnegative multiplicities")
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return sum(self.values)

    @property
    def max_multiplicity(self) -> int:
        return max(self.values)

    @property
    def excess_set(self) -> tuple[int, ...]:
        """Positions where f exceeds n/ell (equivalently, equals ceil(n/ell))."""
        base = self.n // self.ell
        return tuple(x for x, v in enumerate(self.values) if v > base) if self.n % self.ell else ()

    def translate(self, c: int) -> "MultiplicityFunction":
        """x -> f(x - c), the multiplicity function of psi^c times the class."""
        c %= self.ell
        vals = tuple(self.values[(x - c) % self.ell] for x in range(self.ell))
        return MultiplicityFunction(self.ell, vals)

    def __add__(self, other: "MultiplicityFunction") -> "MultiplicityFunction":
        if not isinstance(other, MultiplicityFunction) or other.ell != self.ell:
            return NotImplemented
        return MultiplicityFunction(
            self.ell, tuple(a + b for a, b in zip(self.values, other.values))
        )


def function_from_excess(ell: int, n: int, excess) -> MultiplicityFunction:
    """The f in A_n with the given excess positions."""
    base = n // ell
    excess = set(excess)
    if len(excess) != n % ell:
        raise BadRange("excess set size must equal n mod ell")
    vals = tuple(base + (1 if x in excess else 0) for x in range(ell))
    return MultiplicityFunction(ell, vals)


def is_in_a_n(f: MultiplicityFunction) -> bool:
    """Whether f belongs to A_n for n = sum of its values."""
    n = f.n
    base, k = divmod(n, f.ell)
    if any(v not in (base, base + 1) for v in f.values):
        return False
    if k == 0 and any(v != base for v in f.values):
        return False
    excess = tuple(x for x, v in enumerate(f.values) if v == base + 1) if k else ()
    return len(excess) == k and in_b_k(f.ell, excess)


def a_n(ell: int, n: int) -> list[MultiplicityFunction]:
    """All multiplicity functions in A_n, ordered by their excess sets."""
    _check_ell(ell)
    if not isinstance(n, int) or n < 2:
        raise BadRange("n must be an integer >= 2")
    k = n % ell
    return [function_from_excess(ell, n, s) for s in b_k(ell, k)]


# ---------------------------------------------------------------------------
# decomposition witnesses


@dataclass(frozen=True)
class Cond2Witness:
    """f = f_prime translated by shift, plus a single eigenvalue at singleton."""

    f_prime: MultiplicityFunction
    shift: int
    singleton: int

    def rebuild(self) -> MultiplicityFunction:
        ell = self.f_prime.ell
        one = MultiplicityFunction(
            ell, tuple(1 if x == self.singleton else 0 for x in range(ell))
        )
        return self.f_prime.translate(self.shift) + one


@dataclass(frozen=True)
class Cond3Witness:
    """f = f1 translated by shift1 plus f2 (in A_2) translated by shift2."""

    f1: MultiplicityFunction
    f2: MultiplicityFunction
    shift1: int
    shift2: int

    def rebuild(self) -> MultiplicityFunction:
        return self.f1.translate(self.shift1) + self.f2.translate(self.shift2)


def _untranslate_to_a(ell: int, vals: list[int], n_target: int):
    """Find (f in A_{n_target}, c) with translate(f, c) = vals, or None.

    The shift is pinned by the zero-sum requirement on the excess set, so at
    most one c can work (none when the excess is empty, where c = 0 is used).
    """
    base, k = divmod(n_target, ell)
    if any(v not in (base, base + 1) for v in vals):
        return None
    excess = [x for x, v in enumerate(vals) if v == base + 1]
    if len(excess) != k:
        return None
    if k == 0:
        c = 0
    else:
        c = sum(excess) * pow(k, -1, ell) % ell
    shifted = tuple(sorted((x - c) % ell for x in excess))
    if not in_b_k(ell, shifted):
        return None
    f = MultiplicityFunction(ell, tuple(vals[(x + c) % ell] for x in range(ell)))
    return f, c


def decomposition_witness(ell: int, n: int, f: MultiplicityFunction, mode: str):
    """Constructively split f per the induction step the mode names.

    cond2 peels one eigenvalue: f = translate(f', c) + indicator(x0) with
    f' in A_{n-1}.  cond3 peels an A_2 pair: f = translate(f1, c1) +
    translate(f2, c2) with f1 in A_{n-2}.  The first witness in a fixed
    search order is returned; exhaustion raises NoWitness.
    """
    _check_ell(ell)
    if not isinstance(f, MultiplicityFunction) or f.ell != ell or f.n != n:
        raise BadRange("f must be a multiplicity function with the stated ell, n")
    if not is_in_a_n(f):
        raise BadRange("f is not in A_n")
    if mode == "cond2":
        if n < 3:
            raise BadRange("cond2 needs n >= 3")
        for x0 in range(ell):
            if f.values[x0] < 1:
                continue
            vals = list(f.values)
            vals[x0] -= 1
            hit = _untranslate_to_a(ell, vals, n - 1)
            if hit is not None:
                return Cond2Witness(f_prime=hit[0], shift=hit[1], singleton=x0)
        raise NoWitness(f"cond2 exhausted for ell={ell}, n={n}, f={f.values}")
    if mode == "cond3":
        if n < 4:
            raise BadRange("cond3 needs n >= 4")
        pairs = [
            (y1, y2)
            for y1 in range(ell)
            for y2 in range(y1 + 1, ell)
            if f.values[y1] >= 1 and f.values[y2] >= 1
        ]
        # the worked small-k examples split off the {0, ell-1} pair; try it
        # first so those witnesses come out in the displayed form
        if n % ell in (0, 1) and (0, ell - 1) in pairs:
            pairs.remove((0, ell - 1))
            pairs.insert(0, (0, ell - 1))
        inv2 = pow(2, -1, ell)
        for y1, y2 in pairs:
            vals = list(f.values)
            vals[y1] -= 1
            vals[y2] -= 1
            hit = _untranslate_to_a(ell, vals, n - 2)
            if hit is None:
                continue
            c2 = (y1 + y2) * inv2 % ell
            half_gap = (y1 - c2) % ell
            f2 = function_from_excess(ell, 2, (half_gap, (-half_gap) % ell))
            return Cond3Witness(f1=hit[0], f2=f2, shift1=hit[1], shift2=c2)
        raise NoWitness(f"cond3 exhausted for ell={ell}, n={n}, f={f.values}")
    raise BadRange(f"mode must be cond2 or cond3, got {mode!r}")


# ---------------------------------------------------------------------------
# torsion class lists and the multiplicity bound chain


@dataclass(frozen=True)
class TorsionClassList:
    group_kind: str
    ell: int
    representatives: tuple[tuple[str, int], ...]


def torsion_classes(group_kind: str, ell: int) -> TorsionClassList:
    """Nontrivial torsion classes of Z/ell * Z/ell or the quadrilateral group.

    Every torsion element is conjugate into a vertex group, and distinct
    powers of distinct generators are never conjugate, so the list is one
    entry per (generator, exponent in 1..ell-1).
    """
    _check_ell(ell)
    if group_kind == "free-product":
        labels = ("g1", "g2")
    elif group_kind == "quadrilateral":
        if ell < QUADRILATERAL_MIN_ELL:
            raise BadPrime(f"quadrilateral case needs ell >= {QUADRILATERAL_MIN_ELL}")
        labels = ("x", "y", "z", "t")
    else:
        raise BadRange(f"unknown group kind {group_kind!r}")
    reps = tuple((lab, e) for lab in labels for e in range(1, ell))
    return TorsionClassList(group_kind=group_kind, ell=ell, representatives=reps)


@dataclass(frozen=True)
class MultiplicityReport:
    ell: int
    n: int
    max_multiplicity: int
    ceiling: int
    within_ceiling: bool
    chain_applicable: bool
    chain_holds: bool
    alpha: Fraction


def class_multiplicity_check(ell: int, n: int, f: MultiplicityFunction) -> MultiplicityReport:
    """Report the eigenvalue-multiplicity bound for a class in A_n.

    For ell not dividing n and ell >= 19 the bound chain
    a+1 <= (a+1)n/(a*ell+1) <= 2n/(ell+1) <= alpha*n with a = floor(n/ell)
    is evaluated in exact rationals and reported, never asserted.
    """
    _check_ell(ell)
    if not isinstance(f, MultiplicityFunction) or f.ell != ell or f.n != n:
        raise BadRange("f must be a multiplicity function with the stated ell, n")
    if not is_in_a_n(f):
        raise BadRange("f is not in A_n")
    mx = f.max_multiplicity
    ceiling = -(-n // ell)
    a = n // ell
    applicable = n % ell != 0 and a >= 1 and ell >= QUADRILATERAL_MIN_ELL
    holds = False
    if applicable:
        t1 = Fraction(a + 1)
        t2 = Fraction((a + 1) * n, a * ell + 1)
        t3 = Fraction(2 * n, ell + 1)
        t4 = ALPHA * n
        holds = t1 <= t2 <= t3 <= t4
    return MultiplicityReport(
        ell=ell,
        n=n,
        max_multiplicity=mx,
        ceiling=ceiling,
        within_ceiling=mx <= ceiling,
        chain_applicable=applicable,
        chain_holds=holds,
        alpha=ALPHA,
    )
