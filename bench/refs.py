"""Exact references, computed without character values.

Counts in a group come from the class algebra: the integer structure
constants c_ij^l of ``chartab.class_matrices`` and Python-int class-function
convolution over them.  Surface counts are also computed from the degrees in
``Fraction``s.  Torsion and Grassmannian references are small independent
re-derivations from the definitions.  Nothing here is timed.
"""

from __future__ import annotations

import hashlib
import itertools
from fractions import Fraction

import numpy as np

GENERA = (1, 2, 3, 4)
SQUARE_TERMS = (1, 2, 3)


def group_key(kind: str, n: int, q: int) -> str:
    return f"{kind}{n}(F_{q})"


# ---------------------------------------------------------------------------
# class algebra


def power_map(ctx, e: int) -> list[int]:
    """Class of rep^e for every class."""
    out = []
    for info in ctx.classes:
        cur = info.rep_index
        for _ in range(e - 1):
            cur = ctx.mul_idx(cur, info.rep_index)
        out.append(int(ctx.class_of[cur]))
    return out


def class_inverse(ctx) -> list[int]:
    return [int(ctx.class_of[ctx.inv_idx[c.rep_index]]) for c in ctx.classes]


def convolve(A_obj: np.ndarray, f, g) -> list[int]:
    """(f * g)_l = sum_ij f_i g_j c_ij^l for class functions f, g."""
    M = np.tensordot(np.array(f, dtype=object), A_obj, axes=(0, 0))
    return [int(v) for v in np.array(g, dtype=object) @ M]


def power_fibers(ctx, e: int) -> list[int]:
    """#{x : x^e = z} for z in each class."""
    sizes = [c.size for c in ctx.classes]
    out = [0] * len(sizes)
    for c, target in enumerate(power_map(ctx, e)):
        out[target] += sizes[c]
    return [v // sizes[l] for l, v in enumerate(out)]


def commutator_fibers(A_obj: np.ndarray, order: int, sizes, cinv) -> list[int]:
    """N(z) = sum_C (|G|/|C|) c_{C,C^-1}^z, the commutator fiber over z."""
    k = len(sizes)
    return [
        sum((order // sizes[c]) * int(A_obj[c, cinv[c], l]) for c in range(k))
        for l in range(k)
    ]


def surface_fraction(order: int, degrees, genus: int) -> int:
    total = sum(Fraction(order ** (2 * genus - 1), d ** (2 * genus - 2)) for d in degrees)
    if total.denominator != 1:
        raise ValueError("surface count is not an integer")
    return int(total)


def group_references(ctx, degrees) -> dict:
    """Every seed-independent count of one group, by class algebra.

    Classes are identified by their representative matrices, so the data
    stays valid when the program orders its classes differently.
    """
    from matgroups import chartab

    A = chartab.class_matrices(ctx).astype(object)
    sizes = [c.size for c in ctx.classes]
    order = ctx.order
    cinv = class_inverse(ctx)
    ident = next(i for i, c in enumerate(ctx.classes) if c.element_order == 1)
    comm = commutator_fibers(A, order, sizes, cinv)
    surface, acc = {}, comm
    for g in GENERA:
        if g > 1:
            acc = convolve(A, acc, comm)
        surface[str(g)] = acc[ident]
        if acc[ident] != surface_fraction(order, degrees, g):
            raise ValueError(f"class algebra and degree formula disagree at genus {g}")
    sq = power_fibers(ctx, 2)
    squares, acc = {}, sq
    for m in SQUARE_TERMS:
        if m > 1:
            acc = convolve(A, acc, sq)
        squares[str(m)] = acc
    return {
        "kind": ctx.kind,
        "n": ctx.n,
        "q": ctx.field.q,
        "order": order,
        "reps": [list(c.representative.codes) for c in ctx.classes],
        "sizes": sizes,
        "element_orders": [c.element_order for c in ctx.classes],
        "class_inverse": cinv,
        "degrees": sorted(int(d) for d in degrees),
        "surface": surface,
        "commutator": comm,
        "squares": squares,
        "square_cube": convolve(A, sq, power_fibers(ctx, 3)),
    }


def class_perm(ctx, ref: dict) -> list[int]:
    """Program class index of each stored class, via its representative."""
    from matgroups import matgrp

    return [
        ctx.class_index_of(matgrp.MatrixElement(ctx.field, ctx.n, codes))
        for codes in ref["reps"]
    ]


def pair_constants(ctx, i: int, j: int) -> list[int]:
    """c_ij^l for every l: #{u in C_i : u^-1 z_l in C_j}, in program classes."""
    from matgroups import matgrp

    cof = ctx.class_of
    members = np.flatnonzero(cof == i)
    n = ctx.n
    reps = ctx.mats[[c.rep_index for c in ctx.classes]]
    inv = ctx.mats[ctx.inv_idx[members]]
    Y = matgrp.vec_matmul(ctx.field, inv[:, None], reps[None, :])
    cls = cof[ctx.idx_of_mats(Y.reshape(-1, n, n))].reshape(len(members), len(reps))
    return [int(v) for v in (cls == j).sum(axis=0)]


def quad_reference(ctx, classes) -> int:
    """#{(a,b,c,d) in C1 x C2 x C3 x C4 : abcd = 1} = sum_l |C_l| c_12^l c_34^(l^-1)."""
    c1, c2, c3, c4 = classes
    w12 = pair_constants(ctx, c1, c2)
    w34 = pair_constants(ctx, c3, c4)
    cinv = class_inverse(ctx)
    return sum(c.size * w12[l] * w34[cinv[l]] for l, c in enumerate(ctx.classes))


# ---------------------------------------------------------------------------
# torsion: B_k membership and A_n in the definitions' own terms


def mu3(ell: int) -> tuple[int, int, int]:
    a = next(a for a in range(2, ell) if a * a * a % ell == 1)
    return 1, a, a * a % ell


def has_affine_mu3(ell: int, subset) -> bool:
    """Some t*mu3 + c lies in the subset; two points pin t and c."""
    s = set(subset)
    w = mu3(ell)
    pts = sorted(s)
    for a, b in itertools.combinations(pts, 2):
        for u, v in itertools.permutations(w, 2):
            t = (a - b) * pow(u - v, -1, ell) % ell
            c = (a - t * u) % ell
            third = next(x for x in w if x not in (u, v))
            if (c + t * third) % ell in s:
                return True
    return False


def in_bk(ell: int, subset) -> bool:
    s = set(subset)
    if len(s) != len(tuple(subset)) or sum(s) % ell:
        return False
    return len(s) < 3 or has_affine_mu3(ell, s)


def bk_sets(ell: int, k: int) -> list[tuple[int, ...]]:
    return [c for c in itertools.combinations(range(ell), k) if in_bk(ell, c)]


def bk_digest(sets) -> str:
    return hashlib.sha256(repr(sorted(tuple(s) for s in sets)).encode()).hexdigest()


def in_an(ell: int, n: int, values) -> bool:
    """values is the multiplicity function of a class in A_n."""
    values = tuple(values)
    base, k = divmod(n, ell)
    if len(values) != ell or sum(values) != n:
        return False
    if any(v not in (base, base + 1) for v in values):
        return False
    excess = [x for x, v in enumerate(values) if v == base + 1]
    return len(excess) == k and in_bk(ell, excess)


def translate(values, c: int) -> list[int]:
    ell = len(values)
    return [values[(x - c) % ell] for x in range(ell)]


def check_cond2(ell: int, n: int, f, f_prime, shift: int, singleton: int) -> bool:
    rebuilt = translate(f_prime, shift)
    rebuilt[singleton % ell] += 1
    return in_an(ell, n - 1, f_prime) and rebuilt == list(f)


def check_cond3(ell: int, n: int, f, f1, f2, shift1: int, shift2: int) -> bool:
    rebuilt = [a + b for a, b in zip(translate(f1, shift1), translate(f2, shift2))]
    return in_an(ell, n - 2, f1) and in_an(ell, 2, f2) and rebuilt == list(f)


def multiplicity_report(ell: int, n: int, values) -> tuple:
    """(max multiplicity, ceiling, within, chain applicable, chain holds)."""
    mx = max(values)
    ceiling = -(-n // ell)
    a = n // ell
    applicable = n % ell != 0 and a >= 1 and ell >= 19
    holds = applicable and (
        Fraction(a + 1)
        <= Fraction((a + 1) * n, a * ell + 1)
        <= Fraction(2 * n, ell + 1)
        <= Fraction(n, 10)
    )
    return mx, ceiling, mx <= ceiling, applicable, holds


# ---------------------------------------------------------------------------
# Grassmannian counts


def gauss_binom(a: int, w: int, q: int) -> int:
    num = den = 1
    for j in range(w):
        num *= q ** (a - j) - 1
        den *= q ** (j + 1) - 1
    return num // den


def fixed_subspaces(q: int, blocks, s: int) -> int:
    """Invariant s-subspaces of a semisimple operator with the given
    (irreducible degree b, multiplicity a) blocks: sum over dimension
    vectors of prod G(a, w)(q^b)."""
    total = 0
    for ws in itertools.product(*[range(a + 1) for _, a in blocks]):
        if sum(b * w for (b, _), w in zip(blocks, ws)) == s:
            prod = 1
            for (b, a), w in zip(blocks, ws):
                prod *= gauss_binom(a, w, q**b)
            total += prod
    return total


def _mobius(n: int) -> int:
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


def irreducible_count(q: int, d: int) -> int:
    """Monic irreducibles of degree d over F_q other than x."""
    count = sum(_mobius(d // e) * q**e for e in range(1, d + 1) if d % e == 0) // d
    return count - (d == 1)


def semisimple_class_count(q: int, n: int) -> int:
    """Multisets of irreducibles (not x) whose degrees times multiplicities sum to n."""
    ways = [1] + [0] * n
    for d in range(1, n + 1):
        for _ in range(irreducible_count(q, d)):
            nxt = ways[:]
            for tot in range(n + 1):
                for mult in range(1, (n - tot) // d + 1):
                    nxt[tot + mult * d] += ways[tot]
            ways = nxt
    return ways[n]


# ---------------------------------------------------------------------------
# 2 x 2 matrices over a prime field, as (a, b, c, d) tuples, row-major


def mat2_mul(x, y, p: int) -> tuple[int, int, int, int]:
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g) % p, (a * f + b * h) % p, (c * e + d * g) % p, (c * f + d * h) % p


def mat2_det(x, p: int) -> int:
    return (x[0] * x[3] - x[1] * x[2]) % p


def mat2_inv(x, p: int) -> tuple[int, int, int, int]:
    r = pow(mat2_det(x, p), -1, p)
    a, b, c, d = x
    return d * r % p, -b * r % p, -c * r % p, a * r % p


def mat2_group(kind: str, p: int) -> list[tuple[int, int, int, int]]:
    out = []
    for x in itertools.product(range(p), repeat=4):
        det = mat2_det(x, p)
        if (det == 1) if kind == "SL" else det != 0:
            out.append(x)
    return out


def double_word_image(kind: str, p: int) -> int:
    """#{([x,y], x y^2)} over all pairs, the double-word image size."""
    G = mat2_group(kind, p)
    inv = {x: mat2_inv(x, p) for x in G}
    seen = set()
    for x in G:
        for y in G:
            xy = mat2_mul(x, y, p)
            comm = mat2_mul(mat2_mul(xy, inv[x], p), inv[y], p)
            seen.add((comm, mat2_mul(xy, y, p)))
    return len(seen)


def centralizers_abelian(kind: str, p: int) -> bool:
    """Every noncentral element has an abelian centralizer (commutative
    transitivity; the [[a1,a2],[b,c]] condition then holds trivially)."""
    G = mat2_group(kind, p)
    for b in G:
        cent = [x for x in G if mat2_mul(x, b, p) == mat2_mul(b, x, p)]
        if len(cent) == len(G):
            continue
        for x, y in itertools.combinations(cent, 2):
            if mat2_mul(x, y, p) != mat2_mul(y, x, p):
                return False
    return True


def random_conjugate(rng, kind: str, rep, p: int) -> tuple[int, int, int, int]:
    """g rep g^-1 for a random g of the group's kind (SL classes are SL-orbits)."""
    while True:
        g = tuple(rng.randrange(p) for _ in range(4))
        det = mat2_det(g, p)
        if det:
            break
    if kind == "SL":
        r = pow(det, -1, p)
        g = (g[0] * r % p, g[1] * r % p, g[2], g[3])
    return mat2_mul(mat2_mul(g, tuple(rep), p), mat2_inv(g, p), p)
