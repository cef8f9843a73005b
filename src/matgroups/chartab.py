"""Complex character tables of built groups.

The table is obtained from the class algebra: a random real combination of
the class multiplication matrices is conjugated by diag(sqrt(class size)),
which makes it normal, and its eigendecomposition (`numpy.linalg.eig`)
yields one common eigenvector per irreducible character.  Certificates
(orthogonality, degree integrality, sum of squares) gate every returned
table.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from . import matgrp
from .errors import BudgetExceeded, EigensolverDegeneracy, RoundingFailure

CLASS_BUDGET = 128
MAX_ATTEMPTS = 8
ORTH_TOL = 1e-6
DEGREE_TOL = 1e-4
FS_TOL = 1e-4
CACHE_FORMAT = 1


@dataclass
class CharacterTable:
    ctx: matgrp.GroupContext
    k: int
    values: np.ndarray
    degrees: tuple[int, ...]
    fs_indicators: tuple[int, ...]
    class_sizes: tuple[int, ...]
    centralizer_orders: tuple[int, ...]
    class_element_orders: tuple[int, ...]
    identity_class: int
    residual: float
    seed: int
    attempts: int

    @property
    def order(self) -> int:
        return self.ctx.order

    def chi(self, row: int, cls: int) -> complex:
        return complex(self.values[row, cls])


def class_matrices(ctx: matgrp.GroupContext) -> np.ndarray:
    """Structure constants c_{ij}^l as the array A[i, j, l].

    c_{ij}^l counts pairs (u, v) in C_i x C_j with uv = z_l; it is computed
    as #{x in C_i : x^{-1} z_l in C_j}, one vectorized pass per l.
    """
    classes = ctx.classes
    k = len(classes)
    cof = ctx.class_of
    row = cof * k
    inv_all = ctx.inv_idx
    A = np.zeros((k, k, k), dtype=np.int64)
    for l, info in enumerate(classes):
        j = cof[ctx.mul(inv_all, info.rep_index)]
        A[:, :, l] = np.bincount(row + j, minlength=k * k).reshape(k, k)
    return A


def _row_order(values: np.ndarray, degrees) -> list[int]:
    """Rows sorted by degree, then by their values rounded to 6 decimals."""
    re6, im6 = np.round(values.real, 6).tolist(), np.round(values.imag, 6).tolist()
    return sorted(range(len(values)), key=lambda r: (int(degrees[r]), tuple(zip(re6[r], im6[r]))))


def _squaring_map(ctx: matgrp.GroupContext) -> list[int]:
    reps = [info.rep_index for info in ctx.classes]
    return ctx.class_of[ctx.mul(reps, reps)].tolist()


def character_table(
    ctx: matgrp.GroupContext, seed: int = 0, cache_dir: str | None = None
) -> CharacterTable:
    """Compute the full complex character table of ctx."""
    classes = ctx.classes
    k = len(classes)
    if k > CLASS_BUDGET:
        raise BudgetExceeded(f"{k} classes exceeds table budget {CLASS_BUDGET}")

    cache_dir = cache_dir or ctx.cache_dir or os.environ.get("MATGROUPS_CACHE") or None
    if cache_dir:
        cached = _cache_load(ctx, seed, cache_dir)
        if cached is not None:
            return cached

    sizes = np.array([c.size for c in classes], dtype=np.float64)
    order = ctx.order
    ident = next(i for i, c in enumerate(classes) if c.element_order == 1)
    # cast to float64 in the int64 buffer, one k x k slice at a time, so that
    # two k^3 arrays never coexist (13.8 MB each for GL2(F_11), k = 120)
    A = class_matrices(ctx).view(np.float64)
    for i in range(k):
        A[i] = A[i].view(np.int64)
    sq = np.sqrt(sizes)

    last_residual = np.inf
    for attempt in range(MAX_ATTEMPTS):
        rng = np.random.default_rng(np.random.SeedSequence((seed, attempt)))
        t = rng.uniform(1.0, 2.0, k)
        M = np.tensordot(t, A, axes=(0, 0))
        S = M * (sq[None, :] / sq[:, None])
        _, Q = np.linalg.eig(S.astype(np.complex128))

        V = Q * sq[:, None]
        pivot = V[ident, :]
        if (np.abs(pivot) < 1e-12).any():
            continue
        V = V / pivot[None, :]
        norms = np.sum(np.abs(V) ** 2 / sizes[:, None], axis=0)
        deg_float = np.sqrt(order / norms)
        chi = (V / sizes[:, None]) * deg_float[None, :]

        values = chi.T
        deg_round = np.rint(deg_float).astype(np.int64)
        deg_res = float(np.max(np.abs(deg_float - deg_round)))
        if deg_res > DEGREE_TOL or (deg_round < 1).any():
            last_residual = deg_res
            continue
        if int(np.sum(deg_round**2)) != order or any(order % int(d) for d in deg_round):
            last_residual = deg_res
            continue
        U = values * np.sqrt(sizes / order)[None, :]
        G1 = U @ U.conj().T
        G2 = U.conj().T @ U
        unit_res = float(
            max(
                np.max(np.abs(G1 - np.eye(k))),
                np.max(np.abs(G2 - np.eye(k))),
            )
        )
        if unit_res > ORTH_TOL:
            last_residual = unit_res
            continue

        rows = _row_order(values, deg_round)
        values = values[rows]
        degrees = tuple(int(deg_round[r]) for r in rows)

        sq_map = _squaring_map(ctx)
        fs_raw = (values[:, sq_map] * sizes[None, :]).sum(axis=1) / order
        fs_round = np.rint(fs_raw.real).astype(np.int64)
        fs_res = float(
            np.max(np.abs(fs_raw.real - fs_round)) if k else 0.0
        )
        fs_res = max(fs_res, float(np.max(np.abs(fs_raw.imag))))
        if fs_res > FS_TOL or not set(int(v) for v in fs_round) <= {-1, 0, 1}:
            raise RoundingFailure(
                f"Frobenius-Schur indicators not close to -1/0/1 (residual {fs_res:.2e})"
            )

        table = CharacterTable(
            ctx=ctx,
            k=k,
            values=values,
            degrees=degrees,
            fs_indicators=tuple(int(v) for v in fs_round),
            class_sizes=tuple(c.size for c in classes),
            centralizer_orders=tuple(c.centralizer_order for c in classes),
            class_element_orders=tuple(c.element_order for c in classes),
            identity_class=ident,
            residual=max(unit_res, deg_res, fs_res),
            seed=seed,
            attempts=attempt + 1,
        )
        if cache_dir:
            try:
                _cache_save(table, cache_dir)
            except OSError:
                pass
        return table

    raise EigensolverDegeneracy(
        f"no attempt met the certificates after {MAX_ATTEMPTS} seeds "
        f"(last residual {last_residual:.2e})"
    )


def fs_indicator(table: CharacterTable, row: int) -> int:
    """Frobenius-Schur indicator of one character: +1 real, -1 quaternionic, 0 complex."""
    return table.fs_indicators[row]


def rep_zeta(table: CharacterTable, s: float) -> float:
    """Representation zeta value: sum of degree^(-s) over all irreducibles."""
    return float(sum(d ** (-float(s)) for d in table.degrees))


# ---------------------------------------------------------------------------
# cache


def _table_cache_path(ctx: matgrp.GroupContext, seed: int, cache_dir: str) -> str:
    import hashlib

    modhash = hashlib.sha256(repr(ctx.field.modulus).encode()).hexdigest()[:10]
    name = (
        f"table_v{CACHE_FORMAT}_{ctx.kind}{ctx.n}_p{ctx.field.p}m{ctx.field.m}"
        f"_{modhash}_s{seed}.json"
    )
    return os.path.join(cache_dir, name)


def _cache_save(table: CharacterTable, cache_dir: str):
    os.makedirs(cache_dir, exist_ok=True)
    path = _table_cache_path(table.ctx, table.seed, cache_dir)
    payload = {
        "format": CACHE_FORMAT,
        "k": table.k,
        "values_re": table.values.real.tolist(),
        "values_im": table.values.imag.tolist(),
        "degrees": list(table.degrees),
        "fs_indicators": list(table.fs_indicators),
        "identity_class": table.identity_class,
        "residual": table.residual,
        "seed": table.seed,
        "attempts": table.attempts,
    }
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)


def _cache_load(ctx: matgrp.GroupContext, seed: int, cache_dir: str) -> CharacterTable | None:
    """The cached table, or None when the entry is missing or malformed."""
    path = _table_cache_path(ctx, seed, cache_dir)
    if not os.path.exists(path):
        return None
    k = len(ctx.classes)
    try:
        with open(path) as fh:
            payload = json.load(fh)
        if payload["format"] != CACHE_FORMAT or payload["k"] != k:
            return None
        values = np.array(payload["values_re"]) + 1j * np.array(payload["values_im"])
        table = CharacterTable(
            ctx=ctx,
            k=k,
            values=values,
            degrees=tuple(payload["degrees"]),
            fs_indicators=tuple(payload["fs_indicators"]),
            class_sizes=tuple(c.size for c in ctx.classes),
            centralizer_orders=tuple(c.centralizer_order for c in ctx.classes),
            class_element_orders=tuple(c.element_order for c in ctx.classes),
            identity_class=payload["identity_class"],
            residual=payload["residual"],
            seed=payload["seed"],
            attempts=payload["attempts"],
        )
    except (OSError, ValueError, KeyError, TypeError):
        return None
    if values.shape != (k, k) or len(table.degrees) != k or len(table.fs_indicators) != k:
        return None
    # exact counts divide |G| by the degrees, so a loaded table must certify them too
    degs = table.degrees
    if any(type(d) is not int or d < 1 or ctx.order % d for d in degs):
        return None
    if sum(d * d for d in degs) != ctx.order:
        return None
    return table
