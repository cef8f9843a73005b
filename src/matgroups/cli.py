"""Command-line front end: one subcommand per module plus a verify sweep.

Output is a JSON envelope (or a flat CSV projection of its rows) with the
tool version, an echo of the semantic configuration, and the run seed.  The
cache location is deliberately left out of the echo so reruns with a
different cache placement stay byte-identical.  Tuple scans run in one
thread, block by block; --workers is still accepted and is ignored.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__, charbound, chartab, ff, homcount, matgrp, torsion, wordmap
from .errors import (
    BudgetExceeded,
    CertificateError,
    MatgroupsError,
    UsageError,
)

_GROUP_RE = re.compile(r"^(SL|GL)(\d+),q=(\d+)$")


@dataclass
class RunConfig:
    subcommand: str
    action: str | None
    fmt: str
    seed: int
    params: dict = field(default_factory=dict)

    def echo(self) -> dict:
        out = {"subcommand": self.subcommand}
        if self.action:
            out["action"] = self.action
        out.update(self.params)
        return out


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.floating,)):
        return float(x)
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, (np.bool_,)):
        return bool(x)
    return x


def _emit(cfg: RunConfig, result: dict, certificates: dict | None = None) -> None:
    if cfg.fmt == "csv":
        rows = result.get("rows")
        if not isinstance(rows, list):
            rows = [
                {k: v for k, v in result.items() if not isinstance(v, (list, dict))}
            ]
        buf = io.StringIO()
        headers = sorted({k for r in rows for k in r})
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(headers)
        for r in rows:
            writer.writerow(
                [
                    json.dumps(_jsonable(r.get(h)), sort_keys=True, separators=(",", ":"))
                    if isinstance(r.get(h), (list, dict, tuple))
                    else r.get(h, "")
                    for h in headers
                ]
            )
        sys.stdout.write(buf.getvalue())
        return
    envelope = {
        "tool": "matgroups",
        "version": __version__,
        "seed": cfg.seed,
        "config": cfg.echo(),
        "result": result,
    }
    if certificates:
        envelope["certificates"] = certificates
    sys.stdout.write(
        json.dumps(_jsonable(envelope), sort_keys=True, separators=(",", ":")) + "\n"
    )


# ---------------------------------------------------------------------------
# shared argument plumbing


def _add_io_args(p: argparse.ArgumentParser):
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=0,
                   help="accepted and ignored; scans run in one thread")
    p.add_argument("--cache", default=None, help="cache directory (or MATGROUPS_CACHE)")


def _add_group_args(p: argparse.ArgumentParser):
    p.add_argument("--group", default=None, help="compact form like SL2,q=3")
    p.add_argument("--kind", choices=("SL", "GL"), default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--m", type=int, default=1)


def _group_params(args) -> tuple[str, int, int, int]:
    if args.group:
        m = _GROUP_RE.match(args.group)
        if not m:
            raise UsageError(f"cannot parse group {args.group!r}; expected e.g. SL2,q=3")
        kind, n, q = m.group(1), int(m.group(2)), int(m.group(3))
        p, deg = ff.split_prime_power(q)
        return kind, n, p, deg
    if args.kind is None or args.n is None:
        raise UsageError("need --group or --kind with --n and a field size")
    if args.q is not None:
        p, deg = ff.split_prime_power(args.q)
    elif args.p is not None:
        p, deg = args.p, args.m
    else:
        raise UsageError("need --q or --p (with optional --m)")
    return args.kind, args.n, p, deg


def _build_group(args, cache_dir):
    kind, n, p, m = _group_params(args)
    fld = ff.field_make(p, m)
    return matgrp.group_build(kind, n, fld, cache_dir=cache_dir), (kind, n, p, m)


def _cache_dir(args) -> str | None:
    return args.cache or os.environ.get("MATGROUPS_CACHE") or None


def _group_echo(kind: str, n: int, p: int, m: int) -> dict:
    return {"kind": kind, "n": n, "p": p, "m": m, "q": p**m}


def _parse_matrix(text: str) -> list[list[int]]:
    try:
        return [[int(v) for v in row.split(",")] for row in text.split(";")]
    except ValueError as e:
        raise UsageError(f"bad matrix literal {text!r}: rows ; separated, entries , separated") from e


def _int_list(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v != ""]
    except ValueError as e:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from e


def _presentation_from(args) -> homcount.Presentation:
    rel_text = args.relators or ""
    rels = tuple(r.strip() for r in rel_text.split(";") if r.strip())
    return homcount.Presentation(args.generators, rels)


def _table_certs(table) -> dict:
    return {
        "unitarity_residual": table.residual,
        "attempts": table.attempts,
        "table_seed": table.seed,
    }


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_group(args) -> int:
    cache = _cache_dir(args)
    ctx, (kind, n, p, m) = _build_group(args, cache)
    rows = [
        {
            "class": c.index,
            "element_order": c.element_order,
            "size": c.size,
            "centralizer": c.centralizer_order,
            "char_poly": ff.poly_str(c.char_poly),
            "semisimple": c.is_semisimple,
            "max_multiplicity": c.max_eigenvalue_multiplicity,
        }
        for c in ctx.classes
    ]
    cfg = RunConfig("group", None, args.format, args.seed, _group_echo(kind, n, p, m))
    _emit(cfg, {"order": ctx.order, "classes": len(ctx.classes), "rows": rows})
    return 0


def _cmd_chartable(args) -> int:
    cache = _cache_dir(args)
    ctx, (kind, n, p, m) = _build_group(args, cache)
    table = chartab.character_table(ctx, seed=args.seed, cache_dir=cache)
    rows = [
        {
            "character": i,
            "degree": table.degrees[i],
            "fs_indicator": table.fs_indicators[i],
            "values": [[v.real, v.imag] for v in table.values[i]],
        }
        for i in range(table.k)
    ]
    result = {
        "order": table.order,
        "num_classes": table.k,
        "degrees": list(table.degrees),
        "fs_indicators": list(table.fs_indicators),
        "class_sizes": list(table.class_sizes),
        "class_element_orders": list(table.class_element_orders),
        "zeta2_minus_1": chartab.rep_zeta(table, 2.0) - 1.0,
        "rows": rows,
    }
    cfg = RunConfig("chartable", None, args.format, args.seed, _group_echo(kind, n, p, m))
    _emit(cfg, result, _table_certs(table))
    return 0


def _cmd_count(args) -> int:
    cache = _cache_dir(args)
    ctx, (kind, n, p, m) = _build_group(args, cache)
    params = _group_echo(kind, n, p, m)
    if args.action == "homs":
        pres = _presentation_from(args)
        count = homcount.hom_count_bruteforce(pres, ctx)
        params.update({"generators": args.generators, "relators": args.relators or ""})
        result, certs = {"count": count, "method": "scan"}, {}
    else:
        table = chartab.character_table(ctx, seed=args.seed, cache_dir=cache)
        certs = _table_certs(table)
        if args.action == "surface":
            count = homcount.surface_hom_count(table, args.genus)
            params["genus"] = args.genus
        elif args.action == "commutator":
            count = homcount.commutator_count(table, args.class_index)
            params["class_index"] = args.class_index
        elif args.action == "squares":
            count = homcount.fs_squares_count(table, args.m_terms, args.class_index)
            params.update({"m_terms": args.m_terms, "class_index": args.class_index})
        else:  # quad
            classes = _int_list(args.classes)
            if len(classes) != 4:
                raise UsageError("--classes needs exactly four class indices")
            count = homcount.quad_class_count(table, classes)
            params["classes"] = classes
        result = {"count": count, "method": "character-formula"}
    cfg = RunConfig("count", args.action, args.format, args.seed, params)
    _emit(cfg, result, certs)
    return 0


def _cmd_wordmap(args) -> int:
    cache = _cache_dir(args)
    if args.action == "dimension":
        mfam = re.match(r"^(SL|GL)(\d+)$", args.family or "")
        if not mfam:
            raise UsageError("--family must look like SL2 or GL3")
        pres = _presentation_from(args)
        qs = _int_list(args.qs)
        prof = wordmap.dimension_estimate(
            pres, (mfam.group(1), int(mfam.group(2))), qs,
            seed=args.seed, cache_dir=cache,
        )
        cfg = RunConfig("wordmap", "dimension", args.format, args.seed,
                        {"family": args.family, "qs": qs,
                         "generators": args.generators, "relators": args.relators or ""})
        _emit(cfg, {
            "samples": [list(s) for s in prof.samples],
            "fitted_dimension": prof.fitted_dimension,
            "fitted_leading_coefficient": prof.fitted_leading_coefficient,
            "irreducibility_consistent": prof.irreducibility_consistent,
            "method": prof.method,
        })
        return 0
    ctx, (kind, n, p, m) = _build_group(args, cache)
    params = _group_echo(kind, n, p, m)
    if args.action == "eval":
        w = homcount.parse_word(args.word)
        elems = [ctx.element(_parse_matrix(t)) for t in args.elements.split("|")]
        out = wordmap.eval_word(w, elems)
        params.update({"word": args.word, "elements": args.elements})
        result = {"value": [[int(v) for v in row] for row in out.as_array()],
                  "value_index": ctx.index_of(out)}
    elif args.action == "fiber":
        w = homcount.parse_word(args.word)
        target = ctx.identity if args.target is None else ctx.element(_parse_matrix(args.target))
        count = wordmap.fiber_count(w, ctx, target)
        params.update({"word": args.word, "target": args.target or "identity"})
        result = {"count": count}
    elif args.action == "double":
        w1 = homcount.parse_word(args.w1)
        w2 = homcount.parse_word(args.w2)
        image, fraction = wordmap.double_word_stats(w1, w2, ctx)
        params.update({"w1": args.w1, "w2": args.w2})
        result = {"image_size": image, "fraction": fraction}
    elif args.action == "ct":
        result = {"commutative_transitive": wordmap.commutative_transitivity_check(ctx)}
    else:
        raise UsageError(f"unknown wordmap action {args.action!r}")
    cfg = RunConfig("wordmap", args.action, args.format, args.seed, params)
    _emit(cfg, result)
    return 0


def _cmd_torsion(args) -> int:
    params: dict = {"l": args.l}
    if args.action == "mu3":
        result = {"mu3": list(torsion.mu3(args.l))}
    elif args.action == "bk":
        sets = torsion.b_k(args.l, args.k)
        params["k"] = args.k
        result = {"count": len(sets), "rows": [{"set": list(s)} for s in sets]}
    elif args.action == "an":
        funcs = torsion.a_n(args.l, args.n_total)
        params["n"] = args.n_total
        result = {
            "count": len(funcs),
            "rows": [
                {"values": list(f.values), "max_multiplicity": f.max_multiplicity}
                for f in funcs
            ],
        }
    elif args.action == "witness":
        funcs = torsion.a_n(args.l, args.n_total)
        params.update({"n": args.n_total, "mode": args.mode})
        rows = []
        for i, f in enumerate(funcs):
            w = torsion.decomposition_witness(args.l, args.n_total, f, args.mode)
            ok = w.rebuild() == f
            if args.mode == "cond2":
                rows.append({
                    "f": list(f.values), "f_prime": list(w.f_prime.values),
                    "shift": w.shift, "singleton": w.singleton, "rebuilds": ok,
                })
            else:
                rows.append({
                    "f": list(f.values), "f1": list(w.f1.values),
                    "f2": list(w.f2.values), "shift1": w.shift1,
                    "shift2": w.shift2, "rebuilds": ok,
                })
        result = {"count": len(rows), "rows": rows}
    elif args.action == "classes":
        tc = torsion.torsion_classes(args.group_kind, args.l)
        params["group_kind"] = args.group_kind
        result = {
            "count": len(tc.representatives),
            "rows": [{"generator": g, "exponent": e} for g, e in tc.representatives],
        }
    elif args.action == "multcheck":
        funcs = torsion.a_n(args.l, args.n_total)
        params["n"] = args.n_total
        rows = []
        for f in funcs:
            r = torsion.class_multiplicity_check(args.l, args.n_total, f)
            rows.append({
                "values": list(f.values),
                "max_multiplicity": r.max_multiplicity,
                "ceiling": r.ceiling,
                "within_ceiling": r.within_ceiling,
                "chain_applicable": r.chain_applicable,
                "chain_holds": r.chain_holds,
                "alpha": float(r.alpha),
            })
        result = {"count": len(rows), "rows": rows}
    else:
        raise UsageError(f"unknown torsion action {args.action!r}")
    cfg = RunConfig("torsion", args.action, args.format, args.seed, params)
    _emit(cfg, result)
    return 0


def _cmd_charbound(args) -> int:
    if args.action == "gauss":
        count = charbound.gaussian_binomial(args.a, args.w, args.q)
        cfg = RunConfig("charbound", "gauss", args.format, args.seed,
                        {"a": args.a, "w": args.w, "q": args.q})
        _emit(cfg, {"count": count})
        return 0
    if args.action == "fixed":
        p, m = ff.split_prime_power(args.q)
        fld = ff.field_make(p, m)
        rows_lit = _parse_matrix(args.matrix)
        T = matgrp.matrix_element(fld, rows_lit)
        fb = charbound.fixed_subspace_bound_check(T, args.s)
        cfg = RunConfig("charbound", "fixed", args.format, args.seed,
                        {"q": args.q, "matrix": args.matrix, "s": args.s})
        _emit(cfg, {
            "count": fb.count,
            "exponent": fb.exponent if fb.count else None,
            "bound": fb.bound,
            "holds": fb.holds,
        })
        return 0
    if args.action == "bound":
        cache = _cache_dir(args)
        ctx, (kind, n, p, m) = _build_group(args, cache)
        table = chartab.character_table(ctx, seed=args.seed, cache_dir=cache)
        rep = charbound.character_bound_check(ctx, table, args.alpha, args.beta)
        params = _group_echo(kind, n, p, m)
        params.update({"alpha": args.alpha, "beta": args.beta})
        cfg = RunConfig("charbound", "bound", args.format, args.seed, params)
        _emit(cfg, {
            "group": rep.group_key,
            "params_within_theorem": rep.params_within_theorem,
            "multiplicity_gate": rep.multiplicity_gate,
            "num_violations": len(rep.violations),
            "violations": [list(v) for v in rep.violations],
            "linear_abs_max": rep.linear_abs_max,
            "rows": [
                {
                    "class": r.class_index,
                    "max_multiplicity": r.max_multiplicity,
                    "max_ratio": r.max_ratio if r.max_ratio != -np.inf else None,
                    "schur_consistent": r.schur_consistent,
                }
                for r in rep.rows
            ],
        }, _table_certs(table))
        return 0
    raise UsageError(f"unknown charbound action {args.action!r}")


# ---------------------------------------------------------------------------
# verify sweep: formulas against oracles, exact


def _verify_checks(seed: int, cache: str | None):
    groups = [("GL", 2, 2), ("SL", 2, 3), ("GL", 2, 3)]
    for kind, n, q in groups:
        ctx = matgrp.group_build(kind, n, ff.field_make_q(q), cache_dir=cache)
        table = chartab.character_table(ctx, seed=seed, cache_dir=cache)
        key = f"{kind}{n}(F_{q})"
        oc = homcount.oracle_commutator_counts(ctx)
        for l in range(table.k):
            yield (f"{key} commutator class {l}",
                   homcount.commutator_count(table, l), int(oc[l]))
        for g in (1, 2):
            yield (f"{key} surface genus {g}",
                   homcount.surface_hom_count(table, g),
                   homcount.oracle_surface_count(ctx, g))
        for mm in (1, 2, 3):
            oh = homcount.oracle_squares_histogram(ctx, mm)
            for l in range(table.k):
                rep_idx = ctx.classes[l].rep_index
                yield (f"{key} squares m={mm} class {l}",
                       homcount.fs_squares_count(table, mm, l), int(oh[rep_idx]))
        rng = np.random.default_rng(seed)
        for t in range(4):
            quad = tuple(int(x) for x in rng.integers(0, table.k, size=4))
            yield (f"{key} quad {quad}",
                   homcount.quad_class_count(table, quad),
                   homcount.oracle_quad_count(ctx, quad))
        sq = homcount.squaring_histogram(ctx)
        for l in range(table.k):
            rep_idx = ctx.classes[l].rep_index
            fs_sum = sum(
                table.fs_indicators[i] * table.values[i, l].real for i in range(table.k)
            )
            yield (f"{key} fs-identity class {l}", int(round(fs_sum)), int(sq[rep_idx]))

    ctx3 = matgrp.group_build("SL", 2, ff.field_make(3), cache_dir=cache)
    scan = wordmap.fiber_count(homcount.parse_word("[x1,x2]"), ctx3, ctx3.identity)
    yield ("SL2(F_3) commutator fiber = |G| * #classes", scan,
           ctx3.order * len(ctx3.classes))
    pres = homcount.surface_presentation(2)
    tab3 = chartab.character_table(ctx3, seed=seed, cache_dir=cache)
    yield ("SL2(F_3) surface genus 2 scan vs formula",
           homcount.hom_count_bruteforce(pres, ctx3),
           homcount.surface_hom_count(tab3, 2))

    for q, n in [(2, 2), (3, 2), (2, 3), (5, 2)]:
        fld = ff.field_make_q(q)
        for _, T in charbound.semisimple_representatives(fld, n):
            for s in range(n + 1):
                yield (f"fixed subspaces q={q} n={n} T={list(T.codes)} s={s}",
                       charbound.fixed_subspace_count(T, s),
                       charbound.fixed_subspace_bruteforce(T, s))

    for ell in (7, 13):
        for n_tot in range(3, 15):
            for f in torsion.a_n(ell, n_tot):
                w2 = torsion.decomposition_witness(ell, n_tot, f, "cond2")
                yield (f"cond2 witness l={ell} n={n_tot} f={list(f.values)}",
                       list(w2.rebuild().values), list(f.values))
                if n_tot >= 4:
                    w3 = torsion.decomposition_witness(ell, n_tot, f, "cond3")
                    yield (f"cond3 witness l={ell} n={n_tot} f={list(f.values)}",
                           list(w3.rebuild().values), list(f.values))


def _cmd_verify(args) -> int:
    cache = _cache_dir(args)
    rows = []
    mismatches = 0
    for name, got, want in _verify_checks(args.seed, cache):
        ok = got == want
        mismatches += not ok
        rows.append({"check": name, "got": got, "want": want,
                     "status": "ok" if ok else "mismatch"})
    cfg = RunConfig("verify", None, args.format, args.seed, {})
    _emit(cfg, {"checks": len(rows), "mismatches": mismatches, "rows": rows})
    return 1 if mismatches else 0


# ---------------------------------------------------------------------------
# parser assembly


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="matgroups",
        description="Counting formulas and bounds in finite matrix groups.",
    )
    sub = top.add_subparsers(dest="subcommand", required=True)

    p_group = sub.add_parser("group", help="enumerate a group and its classes")
    _add_group_args(p_group)
    _add_io_args(p_group)
    p_group.set_defaults(func=_cmd_group)

    p_tab = sub.add_parser("chartable", help="irreducible character table")
    _add_group_args(p_tab)
    _add_io_args(p_tab)
    p_tab.set_defaults(func=_cmd_chartable)

    p_count = sub.add_parser("count", help="character-formula counting")
    count_sub = p_count.add_subparsers(dest="action", required=True)
    for name in ("surface", "commutator", "squares", "quad", "homs"):
        pc = count_sub.add_parser(name)
        _add_group_args(pc)
        _add_io_args(pc)
        if name == "surface":
            pc.add_argument("--genus", type=int, required=True)
        if name == "commutator":
            pc.add_argument("--class-index", type=int, default=0)
        if name == "squares":
            pc.add_argument("--m-terms", type=int, required=True)
            pc.add_argument("--class-index", type=int, default=0)
        if name == "quad":
            pc.add_argument("--classes", required=True, help="four class indices, comma separated")
        if name == "homs":
            pc.add_argument("--generators", type=int, required=True)
            pc.add_argument("--relators", default="", help="words separated by ;")
        pc.set_defaults(func=_cmd_count)

    p_word = sub.add_parser("wordmap", help="word-map evaluation and statistics")
    word_sub = p_word.add_subparsers(dest="action", required=True)
    for name in ("eval", "fiber", "dimension", "double", "ct"):
        pw = word_sub.add_parser(name)
        _add_io_args(pw)
        if name != "dimension":
            _add_group_args(pw)
        if name == "eval":
            pw.add_argument("--word", required=True)
            pw.add_argument("--elements", required=True,
                            help="matrices | separated; rows ; separated; entries , separated")
        if name == "fiber":
            pw.add_argument("--word", required=True)
            pw.add_argument("--target", default=None, help="matrix literal, default identity")
        if name == "dimension":
            pw.add_argument("--family", required=True, help="e.g. SL2")
            pw.add_argument("--qs", required=True, help="comma-separated field sizes")
            pw.add_argument("--generators", type=int, required=True)
            pw.add_argument("--relators", default="")
        if name == "double":
            pw.add_argument("--w1", required=True)
            pw.add_argument("--w2", required=True)
        pw.set_defaults(func=_cmd_wordmap)

    p_tor = sub.add_parser("torsion", help="B_k / A_n combinatorics and witnesses")
    tor_sub = p_tor.add_subparsers(dest="action", required=True)
    for name in ("mu3", "bk", "an", "witness", "classes", "multcheck"):
        pt = tor_sub.add_parser(name)
        _add_io_args(pt)
        pt.add_argument("--l", type=int, required=True, help="the prime ell")
        if name == "bk":
            pt.add_argument("--k", type=int, required=True)
        if name in ("an", "witness", "multcheck"):
            pt.add_argument("--n", dest="n_total", type=int, required=True)
        if name == "witness":
            pt.add_argument("--mode", choices=("cond2", "cond3"), required=True)
        if name == "classes":
            pt.add_argument("--group-kind", choices=("free-product", "quadrilateral"),
                            required=True)
        pt.set_defaults(func=_cmd_torsion)

    p_cb = sub.add_parser("charbound", help="subspace counts and character bounds")
    cb_sub = p_cb.add_subparsers(dest="action", required=True)
    pg = cb_sub.add_parser("gauss")
    _add_io_args(pg)
    pg.add_argument("--a", type=int, required=True)
    pg.add_argument("--w", type=int, required=True)
    pg.add_argument("--q", type=int, required=True)
    pg.set_defaults(func=_cmd_charbound)
    pf = cb_sub.add_parser("fixed")
    _add_io_args(pf)
    pf.add_argument("--q", type=int, required=True)
    pf.add_argument("--matrix", required=True)
    pf.add_argument("--s", type=int, required=True)
    pf.set_defaults(func=_cmd_charbound)
    pb = cb_sub.add_parser("bound")
    _add_group_args(pb)
    _add_io_args(pb)
    pb.add_argument("--alpha", type=float, required=True)
    pb.add_argument("--beta", type=float, required=True)
    pb.set_defaults(func=_cmd_charbound)

    p_ver = sub.add_parser("verify", help="formula-vs-oracle sweep; nonzero on mismatch")
    _add_io_args(p_ver)
    p_ver.set_defaults(func=_cmd_verify)

    return top


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except BudgetExceeded as e:
        sys.stderr.write(f"budget exceeded: {e}\n")
        return 3
    except CertificateError as e:
        sys.stderr.write(f"certificate failure: {e}\n")
        return 4
    except MatgroupsError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except Exception as e:
        msg = " ".join(str(e).splitlines())
        sys.stderr.write(f"internal error: {type(e).__name__}: {msg}\n")
        return 5


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
