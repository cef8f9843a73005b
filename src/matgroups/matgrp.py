"""Finite matrix groups SL_n(F_q) and GL_n(F_q).

A GroupContext holds the full element list (budget 10^5 elements) as a
numpy array of field codes plus lookup structures; conjugacy classes are
computed by orbit search under conjugation by a fixed generating set.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass

import numpy as np

from . import ff
from .errors import (
    BadRange,
    BudgetExceeded,
    ElementNotInGroup,
    NoSuchClass,
    NotSquarefree,
    SpecMismatch,
)

ORDER_BUDGET = 10**5
CAYLEY_LIMIT = 2048  # largest order whose full multiplication table is kept
CACHE_FORMAT = 1


def group_order(kind: str, n: int, q: int) -> int:
    """|GL_n(F_q)| or |SL_n(F_q)| by the standard product formula."""
    gl = 1
    for i in range(n):
        gl *= q**n - q**i
    if kind == "GL":
        return gl
    if kind == "SL":
        return gl // (q - 1)
    raise BadRange(f"unknown group kind {kind!r}")


# ---------------------------------------------------------------------------
# vectorized matrix kernels over a FieldSpec (arrays of codes)


def vec_matmul(spec: ff.FieldSpec, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Batched matrix product; X, Y have shape (..., n, n) and broadcast.

    Over F_p this is one int64 contraction (exact, as fields stop at 2^20)
    and one reduction mod p; over F_{p^m} the entry products and their sums
    are looked up in the field's q x q tables.
    """
    n = X.shape[-1]
    if spec.m == 1:
        return np.matmul(X, Y) % spec.p
    if n == 1:
        return spec.vec_mul(X, Y)
    mul, add = spec.arith_tables()
    acc = mul[X[..., :, :1], Y[..., :1, :]]
    for t in range(1, n):
        acc = add[acc, mul[X[..., :, t : t + 1], Y[..., t : t + 1, :]]]
    return acc


def _perm_sign(perm) -> int:
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inv += 1
    return -1 if inv % 2 else 1


def vec_det(spec: ff.FieldSpec, X: np.ndarray) -> np.ndarray:
    """Batched determinant by permutation expansion (intended for n <= 6)."""
    n = X.shape[-1]
    if n == 1:
        return X[..., 0, 0]
    acc = None
    for perm in itertools.permutations(range(n)):
        term = X[..., 0, perm[0]]
        for i in range(1, n):
            term = spec.vec_mul(term, X[..., i, perm[i]])
        if _perm_sign(perm) < 0:
            term = spec.vec_neg(term)
        acc = term if acc is None else spec.vec_add(acc, term)
    return acc


def vec_mat_inv(spec: ff.FieldSpec, X: np.ndarray) -> np.ndarray:
    """Batched matrix inverse via the adjugate."""
    n = X.shape[-1]
    det = vec_det(spec, X)
    det_inv = spec.vec_inv(det)
    if n == 1:
        return det_inv[..., None, None]
    rows = list(range(n))
    adj = np.zeros_like(X)
    for i in range(n):
        for j in range(n):
            sub = X[..., [r for r in rows if r != i], :][..., :, [c for c in rows if c != j]]
            cof = vec_det(spec, sub)
            if (i + j) % 2:
                cof = spec.vec_neg(cof)
            adj[..., j, i] = cof
    return spec.vec_mul(adj, det_inv[..., None, None])


# ---------------------------------------------------------------------------
# elements


class MatrixElement:
    """An n x n matrix over a FieldSpec, stored as a flat tuple of codes."""

    __slots__ = ("field", "n", "codes")

    def __init__(self, field: ff.FieldSpec, n: int, codes):
        self.field = field
        self.n = n
        codes = tuple(int(c) for c in codes)
        if len(codes) != n * n:
            raise BadRange("wrong number of entries")
        if any(not 0 <= c < field.q for c in codes):
            raise BadRange("entry code out of range")
        self.codes = codes

    @property
    def entries(self) -> tuple:
        """Entries as an n x n nested tuple of FieldElement."""
        f, n = self.field, self.n
        return tuple(
            tuple(ff.FieldElement(f, self.codes[i * n + j]) for j in range(n))
            for i in range(n)
        )

    def as_array(self) -> np.ndarray:
        return np.array(self.codes, dtype=np.int64).reshape(self.n, self.n)

    def __matmul__(self, other: "MatrixElement") -> "MatrixElement":
        if not isinstance(other, MatrixElement):
            return NotImplemented
        if other.field != self.field or other.n != self.n:
            raise SpecMismatch("matrices over different contexts")
        spec, n = self.field, self.n
        a, b = self.codes, other.codes
        out = [0] * (n * n)
        for i in range(n):
            for j in range(n):
                acc = 0
                for t in range(n):
                    acc = spec.add_code(acc, spec.mul_code(a[i * n + t], b[t * n + j]))
                out[i * n + j] = acc
        return MatrixElement(spec, n, out)

    def __eq__(self, other):
        return (
            isinstance(other, MatrixElement)
            and self.field == other.field
            and self.n == other.n
            and self.codes == other.codes
        )

    def __hash__(self):
        return hash((self.field.p, self.field.m, self.n, self.codes))

    def __repr__(self):
        n = self.n
        rows = [
            "[" + " ".join(str(self.codes[i * n + j]) for j in range(n)) + "]"
            for i in range(n)
        ]
        return f"Mat({' '.join(rows)} over F_{self.field.q})"


def matrix_element(field: ff.FieldSpec, rows) -> MatrixElement:
    """Build a MatrixElement from nested rows of codes or FieldElements."""
    flat = []
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise BadRange("matrix must be square")
        for v in row:
            flat.append(v.code if isinstance(v, ff.FieldElement) else int(v))
    return MatrixElement(field, n, flat)


def identity_element(field: ff.FieldSpec, n: int) -> MatrixElement:
    codes = [0] * (n * n)
    for i in range(n):
        codes[i * n + i] = 1
    return MatrixElement(field, n, codes)


def mat_det(T: MatrixElement) -> int:
    return int(vec_det(T.field, T.as_array()[None])[0])


def mat_inv(T: MatrixElement) -> MatrixElement:
    inv = vec_mat_inv(T.field, T.as_array()[None])[0]
    return MatrixElement(T.field, T.n, inv.reshape(-1))


def char_poly(T: MatrixElement) -> tuple[int, ...]:
    """Characteristic polynomial det(xI - T), monic, as a code tuple.

    Coefficient of x^(n-k) is (-1)^k times the sum of k x k principal minors.
    """
    spec, n = T.field, T.n
    X = T.as_array()
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    for k in range(1, n + 1):
        ek = 0
        for subset in itertools.combinations(range(n), k):
            sub = X[np.ix_(subset, subset)]
            ek = spec.add_code(ek, int(vec_det(spec, sub[None])[0]))
        if k % 2:
            ek = spec.neg_code(ek)
        coeffs[n - k] = ek
    return tuple(coeffs)


def min_poly(T: MatrixElement) -> tuple[int, ...]:
    """Minimal polynomial via the first linear dependency among powers of T."""
    spec, n = T.field, T.n
    dim = n * n
    # reduced rows of seen powers, with the combination that produced them
    basis: list[tuple[list[int], list[int]]] = []
    power = identity_element(spec, n)
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
    raise AssertionError("no dependency among n+1 matrix powers")  # unreachable


def is_semisimple_matrix(T: MatrixElement) -> bool:
    return ff.poly_is_squarefree(T.field, min_poly(T))


def eigenvalue_multiplicities(T: MatrixElement) -> tuple[tuple[int, int], ...]:
    """Multiset of (irreducible factor degree, multiplicity) of the char poly."""
    fac = ff.poly_factor(T.field, char_poly(T))
    return tuple(sorted((len(f) - 1, mult) for f, mult in fac))


def companion_matrix(field: ff.FieldSpec, poly) -> MatrixElement:
    poly = ff.poly_monic(field, tuple(int(c) if not isinstance(c, ff.FieldElement) else c.code for c in poly))
    n = len(poly) - 1
    if n < 1:
        raise BadRange("polynomial must have degree >= 1")
    codes = [0] * (n * n)
    for i in range(1, n):
        codes[i * n + (i - 1)] = 1
    for i in range(n):
        codes[i * n + (n - 1)] = field.neg_code(poly[i])
    return MatrixElement(field, n, codes)


# ---------------------------------------------------------------------------
# conjugacy class metadata


@dataclass(frozen=True)
class ConjugacyClassInfo:
    index: int
    representative: MatrixElement
    rep_index: int
    size: int
    centralizer_order: int
    element_order: int
    char_poly: tuple[int, ...]
    is_semisimple: bool
    eigenvalue_multiplicities: tuple[tuple[int, int], ...]

    @property
    def max_eigenvalue_multiplicity(self) -> int:
        return max(m for _, m in self.eigenvalue_multiplicities)


class GroupContext:
    """All elements of one SL_n/GL_n group plus lookup and class data."""

    def __init__(self, kind: str, n: int, field: ff.FieldSpec, mats: np.ndarray):
        self.kind = kind
        self.n = n
        self.field = field
        self.mats = mats
        self.order = len(mats)
        space = field.q ** (n * n)
        self._powers = (field.q ** np.arange(n * n, dtype=np.int64))
        keys = mats.reshape(self.order, -1) @ self._powers
        self._key_to_idx = np.full(space, -1, dtype=np.int32)
        self._key_to_idx[keys] = np.arange(self.order, dtype=np.int32)
        self.identity_index = int(self._key_to_idx[int(
            identity_element(field, n).as_array().reshape(-1) @ self._powers)])
        self._classes: list[ConjugacyClassInfo] | None = None
        self._class_of: np.ndarray | None = None
        self._inv_idx: np.ndarray | None = None
        self._cayley: np.ndarray | None = None
        self.cache_dir: str | None = None

    # -- basic element handling

    def element(self, rows_or_elem) -> MatrixElement:
        if isinstance(rows_or_elem, MatrixElement):
            elem = rows_or_elem
        else:
            elem = matrix_element(self.field, rows_or_elem)
        self.index_of(elem)  # membership check
        return elem

    def keys_of(self, mats: np.ndarray) -> np.ndarray:
        return mats.reshape(*mats.shape[:-2], self.n * self.n) @ self._powers

    def idx_of_mats(self, mats: np.ndarray) -> np.ndarray:
        idx = self._key_to_idx[self.keys_of(mats)]
        if (idx < 0).any():
            raise ElementNotInGroup("product left the group")  # should not happen
        return idx

    def index_of(self, elem: MatrixElement) -> int:
        if not isinstance(elem, MatrixElement):
            raise ElementNotInGroup("not a matrix element")
        if elem.field != self.field or elem.n != self.n:
            raise ElementNotInGroup("element from a different context")
        key = 0
        mult = 1
        for c in elem.codes:
            key += c * mult
            mult *= self.field.q
        idx = int(self._key_to_idx[key])
        if idx < 0:
            raise ElementNotInGroup("matrix is not in the group")
        return idx

    def element_at(self, idx: int) -> MatrixElement:
        return MatrixElement(self.field, self.n, self.mats[idx].reshape(-1))

    @property
    def identity(self) -> MatrixElement:
        return self.element_at(self.identity_index)

    def mul(self, a, b):
        """Indices of the products of elements a and b (broadcasting index arrays).

        This is the one product of group elements: a lookup in the Cayley table
        once it exists, otherwise one batched matrix product.
        """
        if self._cayley is not None:
            return self._cayley[a, b]
        X = np.take(self.mats, a, axis=0)
        Y = np.take(self.mats, b, axis=0)
        return self.idx_of_mats(vec_matmul(self.field, X, Y))

    def mul_idx(self, i: int, j: int) -> int:
        return int(self.mul(i, j))

    @property
    def inv_idx(self) -> np.ndarray:
        if self._inv_idx is None:
            inv = vec_mat_inv(self.field, self.mats)
            self._inv_idx = self.idx_of_mats(inv)
        return self._inv_idx

    @property
    def cayley(self) -> np.ndarray | None:
        """The |G| x |G| table of product indices, or None above CAYLEY_LIMIT."""
        if self._cayley is None and self.order <= CAYLEY_LIMIT:
            N = self.order
            cay = np.empty((N, N), dtype=np.int32)
            rows = max(1, 2**13 // N)  # products per block stay at most 2^13
            cols = np.arange(N)
            for i in range(0, N, rows):
                cay[i : i + rows] = self.mul(np.arange(i, min(i + rows, N))[:, None], cols)
            self._cayley = cay
        return self._cayley

    def __repr__(self):
        return f"GroupContext({self.kind}_{self.n}(F_{self.field.q}), order={self.order})"

    # -- conjugacy classes

    @property
    def classes(self) -> list[ConjugacyClassInfo]:
        if self._classes is None:
            self._compute_classes()
        return self._classes

    @property
    def class_of(self) -> np.ndarray:
        if self._class_of is None:
            self._compute_classes()
        return self._class_of

    def class_index_of(self, elem: MatrixElement) -> int:
        return int(self.class_of[self.index_of(elem)])

    def _generator_indices(self) -> list[int]:
        spec, n = self.field, self.n
        gens = []
        ident = identity_element(spec, n)
        if n >= 2:
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    for t in range(spec.m):
                        codes = list(ident.codes)
                        codes[i * n + j] = spec.p**t
                        gens.append(MatrixElement(spec, n, codes))
        if self.kind == "GL" and spec.q > 2:
            g = spec.primitive_code()
            codes = list(ident.codes)
            codes[0] = g
            gens.append(MatrixElement(spec, n, codes))
        return sorted({self.index_of(g) for g in gens})

    def element_orders(self, idx) -> np.ndarray:
        """Multiplicative orders of the elements idx, by repeated products."""
        base = np.asarray(idx, dtype=np.int64)
        cur = base.copy()
        orders = np.ones(len(base), dtype=np.int64)
        live = np.flatnonzero(cur != self.identity_index)
        while live.size:
            cur[live] = self.mul(cur[live], base[live])
            orders[live] += 1
            live = live[cur[live] != self.identity_index]
        return orders

    def element_order_of_idx(self, idx: int) -> int:
        return int(self.element_orders([idx])[0])

    def _orbit_labels(self) -> np.ndarray:
        """The smallest element index in each element's conjugacy class.

        Each generator g gives the permutation x -> g^-1 x g of G.  Every
        label takes the minimum of its own and its image's label until nothing
        changes; a permutation's cycles carry the minimum all the way round, so
        the inverse permutations are not needed.
        """
        gen_idx = np.array(self._generator_indices(), dtype=np.int64)
        gen_inv = self.idx_of_mats(vec_mat_inv(self.field, self.mats[gen_idx]))
        all_idx = np.arange(self.order, dtype=np.int64)
        perms = [self.mul(self.mul(ginv, all_idx), g) for g, ginv in zip(gen_idx, gen_inv)]
        label = all_idx
        while True:
            before = label.copy()
            for perm in perms:
                np.minimum(label, label[perm], out=label)
            if np.array_equal(label, before):
                return label

    def _compute_classes(self):
        label = self._orbit_labels()
        reps, class_of, sizes = np.unique(label, return_inverse=True, return_counts=True)
        reps, sizes, orders = reps.tolist(), sizes.tolist(), self.element_orders(reps).tolist()
        by_key = sorted(range(len(reps)), key=lambda c: (orders[c], sizes[c], reps[c]))
        remap = np.empty(len(reps), dtype=np.int32)
        remap[by_key] = np.arange(len(reps), dtype=np.int32)
        classes = []
        for new_cid, c in enumerate(by_key):
            rep = self.element_at(reps[c])
            classes.append(
                ConjugacyClassInfo(
                    index=new_cid,
                    representative=rep,
                    rep_index=reps[c],
                    size=sizes[c],
                    centralizer_order=self.order // sizes[c],
                    element_order=orders[c],
                    char_poly=char_poly(rep),
                    is_semisimple=is_semisimple_matrix(rep),
                    eigenvalue_multiplicities=eigenvalue_multiplicities(rep),
                )
            )
        self._class_of = remap[class_of]
        self._classes = classes
        if self.cache_dir:
            try:
                _cache_save(self)
            except OSError:
                pass


# ---------------------------------------------------------------------------
# public operations


def group_build(kind: str, n: int, field: ff.FieldSpec, cache_dir: str | None = None) -> GroupContext:
    """Enumerate SL_n/GL_n over the given field; order capped at 10^5."""
    if kind not in ("SL", "GL"):
        raise BadRange(f"kind must be SL or GL, got {kind!r}")
    if not isinstance(n, int) or n < 1:
        raise BadRange("n must be a positive integer")
    order = group_order(kind, n, field.q)
    if order > ORDER_BUDGET:
        raise BudgetExceeded(f"|{kind}_{n}(F_{field.q})| = {order} exceeds {ORDER_BUDGET}")

    cache_dir = cache_dir or os.environ.get("MATGROUPS_CACHE") or None
    if cache_dir:
        ctx = _cache_load(kind, n, field, cache_dir)
        if ctx is not None:
            return ctx
    ctx = group_build_uncached(kind, n, field)
    ctx.cache_dir = cache_dir
    return ctx


def conjugacy_classes(ctx: GroupContext) -> list[ConjugacyClassInfo]:
    """Classes sorted by (element order, class size, first element index)."""
    return ctx.classes


def centralizer_order(ctx: GroupContext, x: MatrixElement) -> int:
    """Size of the centralizer of x, by scanning all group elements."""
    xi = ctx.index_of(x)
    all_idx = np.arange(ctx.order)
    return int(np.count_nonzero(ctx.mul(all_idx, xi) == ctx.mul(xi, all_idx)))


def semisimple_class_from_charpoly(ctx: GroupContext, coeffs) -> ConjugacyClassInfo:
    """Locate the semisimple class with the given squarefree char poly."""
    codes = tuple(c.code if isinstance(c, ff.FieldElement) else int(c) for c in coeffs)
    if len(codes) != ctx.n + 1:
        raise BadRange(f"char poly must have degree {ctx.n}")
    if codes[-1] != 1:
        raise BadRange("char poly must be monic")
    if codes[0] == 0:
        raise NoSuchClass("constant term 0 means the matrix is singular")
    if not ff.poly_is_squarefree(ctx.field, codes):
        raise NotSquarefree("char poly has a repeated factor")
    comp = companion_matrix(ctx.field, codes)
    try:
        idx = ctx.index_of(comp)
    except ElementNotInGroup:
        raise NoSuchClass(
            "no element of the group has this char poly (determinant mismatch)"
        ) from None
    return ctx.classes[int(ctx.class_of[idx])]


# ---------------------------------------------------------------------------
# cache files


def _cache_path(kind: str, n: int, field: ff.FieldSpec, cache_dir: str) -> str:
    import hashlib

    modhash = hashlib.sha256(repr(field.modulus).encode()).hexdigest()[:10]
    name = f"group_v{CACHE_FORMAT}_{kind}{n}_p{field.p}m{field.m}_{modhash}.json"
    return os.path.join(cache_dir, name)


def _cache_save(ctx: GroupContext):
    path = _cache_path(ctx.kind, ctx.n, ctx.field, ctx.cache_dir)
    os.makedirs(ctx.cache_dir, exist_ok=True)
    classes = ctx.classes
    payload = {
        "format": CACHE_FORMAT,
        "kind": ctx.kind,
        "n": ctx.n,
        "p": ctx.field.p,
        "m": ctx.field.m,
        "modulus": list(ctx.field.modulus),
        "order": ctx.order,
        "class_of": ctx.class_of.tolist(),
        "classes": [
            {
                "rep_index": c.rep_index,
                "size": c.size,
                "element_order": c.element_order,
                "char_poly": list(c.char_poly),
                "is_semisimple": c.is_semisimple,
                "eig": [list(pair) for pair in c.eigenvalue_multiplicities],
            }
            for c in classes
        ],
    }
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)


def _cache_load(kind: str, n: int, field: ff.FieldSpec, cache_dir: str) -> GroupContext | None:
    """The cached context, or None when the entry is missing or malformed."""
    path = _cache_path(kind, n, field, cache_dir)
    if not os.path.exists(path):
        return None
    order = group_order(kind, n, field.q)
    try:
        with open(path) as fh:
            payload = json.load(fh)
        if payload["format"] != CACHE_FORMAT or payload["modulus"] != list(field.modulus):
            return None
        class_of = np.array(payload["class_of"], dtype=np.int32)
        rows = [
            (int(c["rep_index"]), int(c["size"]), int(c["element_order"]),
             tuple(c["char_poly"]), c["is_semisimple"], tuple(tuple(p) for p in c["eig"]))
            for c in payload["classes"]
        ]
    except (OSError, ValueError, KeyError, TypeError, OverflowError):
        return None
    if (
        class_of.shape != (order,)
        or ((class_of < 0) | (class_of >= len(rows))).any()
        or sum(size for _, size, *_ in rows) != order
        or not all(0 <= rep < order and size > 0 for rep, size, *_ in rows)
    ):
        return None
    # elements are regenerated; the cache stores only class structure
    ctx = group_build_uncached(kind, n, field)
    ctx.cache_dir = cache_dir
    ctx._class_of = class_of
    ctx._classes = [
        ConjugacyClassInfo(
            index=i,
            representative=ctx.element_at(rep),
            rep_index=rep,
            size=size,
            centralizer_order=order // size,
            element_order=elem_order,
            char_poly=cp,
            is_semisimple=semisimple,
            eigenvalue_multiplicities=eig,
        )
        for i, (rep, size, elem_order, cp, semisimple, eig) in enumerate(rows)
    ]
    return ctx


def group_build_uncached(kind: str, n: int, field: ff.FieldSpec) -> GroupContext:
    q = field.q
    order = group_order(kind, n, q)
    if order > ORDER_BUDGET:
        raise BudgetExceeded(f"|{kind}_{n}(F_{q})| = {order} exceeds {ORDER_BUDGET}")
    space = q ** (n * n)
    if space > 2**24:
        raise BudgetExceeded(f"enumeration space q^(n^2) = {space} too large")
    codes = np.arange(space, dtype=np.int64)
    digits = np.empty((space, n * n), dtype=np.int64)
    for i in range(n * n):
        digits[:, i] = codes % q
        codes //= q
    X = digits.reshape(space, n, n)
    det = vec_det(field, X)
    mask = det == 1 if kind == "SL" else det != 0
    mats = np.ascontiguousarray(X[mask])
    if len(mats) != order:
        raise AssertionError(f"enumerated {len(mats)} elements, expected {order}")
    return GroupContext(kind, n, field, mats)
