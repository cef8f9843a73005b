"""Regenerate the stored exact references under bench/refs.

    PYTHONPATH=src python3 bench/make_refs.py

static.json holds every seed-independent reference; seeded.json holds the
seeded quad references for the default seed 0 and the held-out seed 1.
Class-algebra counts are cross-checked against the program's element-level
oracles wherever the oracle's int64 arithmetic cannot overflow, and against
the degree formula in Fractions for every surface count.  Takes a few
minutes on two cores.
"""

from __future__ import annotations

import json
import os
import sys

import refs
import workloads as W
from matgroups import chartab, ff, homcount, matgrp

ORACLE_MAX_ORDER = 2200
INT64_SAFE = 2**62
STORED_SEEDS = (0, 1)


def _oracle_check(ctx, ref: dict) -> None:
    """Stored counts equal the element oracles wherever int64 holds them."""
    key = ref_key(ctx)
    ident = ref["element_orders"].index(1)
    comm = homcount.oracle_commutator_counts(ctx)
    assert [int(v) for v in comm] == ref["commutator"], key
    for g, want in ref["surface"].items():
        if int(g) >= 2 and want < INT64_SAFE:
            assert homcount.oracle_surface_count(ctx, int(g)) == want, (key, g)
    for m, want in ref["squares"].items():
        if max(want) * ctx.order < INT64_SAFE:
            hist = homcount.oracle_squares_histogram(ctx, int(m))
            assert [int(hist[c.rep_index]) for c in ctx.classes] == want, (key, m)
    assert ref["squares"]["1"][ident] == int(homcount.squaring_histogram(ctx)[ctx.identity_index])
    if ctx.order <= 400:
        hist = homcount.word_histogram(ctx, homcount.parse_word(W.SECOND_WORD))
        assert [int(hist[c.rep_index]) for c in ctx.classes] == ref["square_cube"], key


def ref_key(ctx) -> str:
    return refs.group_key(ctx.kind, ctx.n, ctx.field.q)


def main() -> int:
    static: dict = {}
    ctxs = {}
    for kind, n, q in W.FORMULA_GROUPS:
        ctx = matgrp.group_build(kind, n, ff.field_make_q(q))
        table = chartab.character_table(ctx, seed=0)
        ref = refs.group_references(ctx, table.degrees)
        if ctx.order <= ORACLE_MAX_ORDER:
            _oracle_check(ctx, ref)
        key = ref_key(ctx)
        static[key] = ref
        ctxs[key] = ctx
        print(f"{key}: {len(ref['reps'])} classes", flush=True)
    for kind, n, q in W.DOUBLE_GROUPS:
        static[W.key_of(kind, n, q)]["double_image"] = refs.double_word_image(kind, q)
    for kind, n, q in W.CT_GROUPS:
        static[W.key_of(kind, n, q)]["commutative_transitive"] = refs.centralizers_abelian(kind, q)
    sets19 = [refs.bk_sets(19, k) for k in range(19)]
    static["torsion"] = {
        "count": {str(ell): [len(refs.bk_sets(ell, k)) for k in range(ell)] for ell in (7, 13)}
        | {"19": [len(s) for s in sets19]},
        "digest19": [refs.bk_digest(s) for s in sets19],
    }
    static["semisimple_classes"] = {
        f"{q},{n}": refs.semisimple_class_count(q, n) for q, n in W.GRASSMANN_QN}

    seeded: dict = {}
    for seed in STORED_SEEDS:
        quads: dict = {}
        for workload in ("formula-sweep", "scan-oracle", "cli-warm"):
            inputs = W.make_inputs(workload, seed, static)
            if workload == "formula-sweep":
                pairs = [(k, c) for k, cs in inputs["quads"].items() for c in cs]
            elif workload == "scan-oracle":
                pairs = list(inputs["quads"].items())
            else:
                pairs = [("SL2(F_13)", inputs["quad_sl13"]), ("GL2(F_7)", inputs["quad_gl7"])]
            for key, classes in pairs:
                ctx = ctxs[key]
                want = refs.quad_reference(ctx, classes)
                if ctx.order <= ORACLE_MAX_ORDER:
                    assert homcount.oracle_quad_count(ctx, classes) == want, (key, classes)
                quads.setdefault(key, {})[",".join(map(str, classes))] = want
        seeded[str(seed)] = quads

    for name, data in (("static.json", static), ("seeded.json", seeded)):
        with open(os.path.join(W.REFS_DIR, name), "w") as fh:
            json.dump(data, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
