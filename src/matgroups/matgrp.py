"""Finite matrix groups SL_n(F_q) and GL_n(F_q).

A GroupContext holds the full element list (budget 10^5 elements) as a
numpy array of field codes, in ascending order of key sum_i codes[i] q^i,
plus lookup structures.  The elements are enumerated directly: for every
choice of the first n-1 rows with a nonzero cofactor vector c, the
determinant r . c is linear in the last row r, so each target determinant
and each choice of all but one coordinate of r fixes the last coordinate.
Conjugacy classes are the orbits of the conjugation permutations of a fixed
generating set.
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
        if sum(a > b for a, b in itertools.combinations(perm, 2)) % 2:
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

    T is reduced to upper Hessenberg form H by similarity transforms; the char
    polys of the leading blocks of H then follow by the recurrence of Cohen,
    A Course in Computational Algebraic Number Theory, Alg. 2.2.9.
    """
    spec, n = T.field, T.n
    add, sub, mul = spec.add_code, spec.sub_code, spec.mul_code
    H = [list(T.codes[i * n : (i + 1) * n]) for i in range(n)]
    for m in range(1, n - 1):  # clear column m-1 below the pivot H[m][m-1]
        piv = next((i for i in range(m, n) if H[i][m - 1]), m)
        H[piv], H[m] = H[m], H[piv]
        for row in H:
            row[piv], row[m] = row[m], row[piv]
        for i in range(m + 1, n):
            if H[i][m - 1]:  # row i -= u row m, then column m += u column i
                u = mul(H[i][m - 1], spec.inv_code(H[m][m - 1]))
                H[i] = [sub(a, mul(u, b)) for a, b in zip(H[i], H[m])]
                for row in H:
                    row[m] = add(row[m], mul(u, row[i]))
    polys = [(1,)]  # polys[m] = det(xI - H[:m, :m])
    for m in range(n):
        p, t = ff.poly_mul(spec, (spec.neg_code(H[m][m]), 1), polys[m]), 1
        for i in range(1, m + 1):  # t = h_{m,m-1} ... h_{m-i+1,m-i}
            t = mul(t, H[m - i + 1][m - i])
            p = ff.poly_sub(spec, p, ff.poly_mul(spec, (mul(t, H[m - i][m]),), polys[m - i]))
        polys.append(p)
    return polys[n]


def matrix_invariants(T: MatrixElement) -> tuple[tuple[int, ...], bool, tuple[tuple[int, int], ...]]:
    """(char poly, semisimple, eigenvalue multiplicities) of T from one factorisation.

    The multiplicities are the (degree, multiplicity) pairs of the irreducible
    factors of chi.  T is semisimple iff its minimal polynomial is squarefree,
    i.e. equals rad(chi), the product of the distinct factors, which always
    divides it; so iff rad(chi)(T) = 0.  A squarefree chi is rad(chi), and
    chi(T) = 0 by Cayley-Hamilton, so only a repeated factor needs the check.
    """
    spec, n = T.field, T.n
    cp = char_poly(T)
    fac = ff.poly_factor(spec, cp)
    eig = tuple(sorted((len(f) - 1, mult) for f, mult in fac))
    if all(mult == 1 for _, mult in fac):
        return cp, True, eig
    rad = (1,)
    for f, _ in fac:
        rad = ff.poly_mul(spec, rad, f)
    value = [0] * (n * n)  # rad(T) by Horner's rule
    for c in reversed(rad):
        value = list((MatrixElement(spec, n, value) @ T).codes)
        for i in range(0, n * n, n + 1):
            value[i] = spec.add_code(value[i], c)
    return cp, not any(value), eig


def is_semisimple_matrix(T: MatrixElement) -> bool:
    return matrix_invariants(T)[1]


def eigenvalue_multiplicities(T: MatrixElement) -> tuple[tuple[int, int], ...]:
    """Multiset of (irreducible factor degree, multiplicity) of the char poly."""
    return matrix_invariants(T)[2]


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
        self._row_keys: np.ndarray | None = None
        self._col_keys: np.ndarray | None = None
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
        once it exists; a product of one fixed element with at least q^n others
        through a table of its q^n line images; otherwise one batched matrix
        product.
        """
        if self._cayley is not None:
            return self._cayley[a, b]
        lines = self.field.q**self.n
        if np.ndim(b) == 0 and np.size(a) >= lines:
            return self._mul_fixed(a, int(b), right=True)
        if np.ndim(a) == 0 and np.size(b) >= lines:
            return self._mul_fixed(b, int(a), right=False)
        X = np.take(self.mats, a, axis=0)
        Y = np.take(self.mats, b, axis=0)
        return self.idx_of_mats(vec_matmul(self.field, X, Y))

    def _mul_fixed(self, a, fixed: int, right: bool) -> np.ndarray:
        """Indices of a[..] * fixed (right) or fixed * a[..] (left).

        Right multiplication by B sends row r of each factor to rB, so with
        T_i[r] = sum_j (rB)_j q^(n i + j) over all q^n rows r, the product's key
        is sum_i T_i[rowkey_i].  On the left, column c goes to Bc, and
        T_j[c] = sum_i (Bc)_i q^(n i + j) gives the key sum_j T_j[colkey_j].
        """
        q, n = self.field.q, self.n
        B = self.mats[fixed]
        images = vec_matmul(self.field, _all_vectors(q, n)[:, None, :], B if right else B.T)
        w = q ** np.arange(n, dtype=np.int64)
        inner, outer = (w, w**n) if right else (w**n, w)
        tables = outer[:, None] * (images[:, 0] @ inner)
        line_keys = self._line_keys(right)
        keys = tables[0].take(line_keys[0].take(a))
        for i in range(1, n):
            keys += tables[i].take(line_keys[i].take(a))
        return self._key_to_idx.take(keys)

    def _line_keys(self, rows: bool) -> np.ndarray:
        """Row keys sum_j g_ij q^j or column keys sum_i g_ij q^i of every g, shape (n, |G|)."""
        attr = "_row_keys" if rows else "_col_keys"
        if getattr(self, attr) is None:
            q, n = self.field.q, self.n
            w = q ** np.arange(n, dtype=np.int64)
            keys = self.mats @ w if rows else w @ self.mats
            dtype = np.int16 if q**n <= 2**15 else np.int32
            setattr(self, attr, np.ascontiguousarray(keys.T, dtype=dtype))
        return getattr(self, attr)

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
        counts = np.bincount(label, minlength=self.order)
        reps = np.flatnonzero(counts)
        class_of = (np.cumsum(counts > 0) - 1)[label]
        sizes, orders = counts[reps].tolist(), self.element_orders(reps).tolist()
        reps = reps.tolist()
        by_key = sorted(range(len(reps)), key=lambda c: (orders[c], sizes[c], reps[c]))
        remap = np.empty(len(reps), dtype=np.int32)
        remap[by_key] = np.arange(len(reps), dtype=np.int32)
        classes = []
        for new_cid, c in enumerate(by_key):
            rep = self.element_at(reps[c])
            cp, semisimple, eig = matrix_invariants(rep)
            classes.append(
                ConjugacyClassInfo(
                    index=new_cid,
                    representative=rep,
                    rep_index=reps[c],
                    size=sizes[c],
                    centralizer_order=self.order // sizes[c],
                    element_order=orders[c],
                    char_poly=cp,
                    is_semisimple=semisimple,
                    eigenvalue_multiplicities=eig,
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
        or not all(0 <= rep < order and size > 0 and _class_data_ok(n, field.q, *data)
                   for rep, size, *data in rows)
        # class i holds exactly size_i elements, its representative among them
        or np.bincount(class_of, minlength=len(rows)).tolist() != [size for _, size, *_ in rows]
        or class_of[[rep for rep, *_ in rows]].tolist() != list(range(len(rows)))
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


def _class_data_ok(n: int, q: int, elem_order, cp, semisimple, eig) -> bool:
    """Whether one cached class's order, char poly, semisimplicity and eig are well formed."""
    return (
        elem_order >= 1
        and len(cp) == n + 1
        and cp[-1] == 1
        and all(type(c) is int and 0 <= c < q for c in cp)
        and type(semisimple) is bool
        and len(eig) > 0
        and all(len(pair) == 2 and all(type(v) is int for v in pair) for pair in eig)
    )


def group_build_uncached(kind: str, n: int, field: ff.FieldSpec) -> GroupContext:
    """All elements of SL_n/GL_n(F_q), in ascending order of key sum_i codes[i] q^i."""
    q = field.q
    order = group_order(kind, n, q)
    if order > ORDER_BUDGET:
        raise BudgetExceeded(f"|{kind}_{n}(F_{q})| = {order} exceeds {ORDER_BUDGET}")
    space = q ** (n * n)
    if space > 2**24:  # GroupContext keeps a key -> index table of this size
        raise BudgetExceeded(f"enumeration space q^(n^2) = {space} too large")
    dets = np.ones(1, dtype=np.int64) if kind == "SL" else np.arange(1, q, dtype=np.int64)
    mats = dets[:, None, None] if n == 1 else _solve_last_row(field, n, dets)
    keys = mats.reshape(len(mats), -1) @ (q ** np.arange(n * n, dtype=np.int64))
    by_key = np.argsort(keys)
    mats, keys = mats[by_key], keys[by_key]
    # |G| distinct matrices, each with a determinant of the group: the whole group
    if len(mats) != order:
        raise AssertionError(f"enumerated {len(mats)} elements, expected {order}")
    if not (np.diff(keys) > 0).all():
        raise AssertionError("enumerated a matrix twice")
    return GroupContext(kind, n, field, mats)


def _solve_last_row(spec: ff.FieldSpec, n: int, dets: np.ndarray) -> np.ndarray:
    """All n x n matrices (n >= 2) whose determinant is in dets, in no set order.

    Expanded along the last row r, det = r . c is linear in r, where c is the
    cofactor vector of the first n-1 rows.  For every choice of those rows with
    c != 0, let j be the first index with c_j != 0; each choice of the other n-1
    coordinates of r and each target t then gives exactly one
    r_j = (t - sum_{i != j} r_i c_i) / c_j.
    """
    q = spec.q
    prefixes = _all_vectors(q, n * (n - 1)).reshape(-1, n - 1, n)
    cols = [[c for c in range(n) if c != j] for j in range(n)]
    cof = vec_det(spec, prefixes[:, :, cols].swapaxes(1, 2))  # minors, (prefix, j)
    cof[:, n % 2 :: 2] = spec.vec_neg(cof[:, n % 2 :: 2])  # signs (-1)^(n-1+j)
    keep = cof.any(axis=1)
    prefixes, cof = prefixes[keep], cof[keep]
    pivot = (cof != 0).argmax(axis=1)
    free = _all_vectors(q, n - 1)
    blocks = []
    for j in range(n):
        P, c = prefixes[pivot == j], cof[pivot == j]
        others = cols[j]
        dot = np.zeros((len(P), len(free)), dtype=np.int64)
        for k, i in enumerate(others):
            dot = spec.vec_add(dot, spec.vec_mul(c[:, i, None], free[None, :, k]))
        r_j = spec.vec_mul(spec.vec_add(dets[:, None, None], spec.vec_neg(dot)),
                           spec.vec_inv(c[:, j])[:, None])  # (target, prefix, free)
        X = np.empty(r_j.shape + (n, n), dtype=np.int64)
        X[..., : n - 1, :] = P[:, None]
        X[..., n - 1, others] = free
        X[..., n - 1, j] = r_j
        blocks.append(X.reshape(-1, n, n))
    return np.concatenate(blocks)


def _all_vectors(q: int, k: int) -> np.ndarray:
    """All q^k vectors of k codes, row v at index sum_i v_i q^i."""
    codes = np.arange(q**k, dtype=np.int64)
    out = np.empty((q**k, k), dtype=np.int64)
    for i in range(k):
        out[:, i] = codes % q
        codes //= q
    return out
