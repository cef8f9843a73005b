"""Per-layer tracing, installed from the benchmark around the program's calls.

``install`` replaces each public function of the program's modules (and the
FieldSpec, GroupContext and ScanKernel methods the layer metrics need) with a
wrapper that records one span: name, start, end, parent span and job id.
Spans stay in memory in flat arrays and are written once, when the run ends.
Self time is a span's duration minus the time its child spans cover.

``layer_metrics`` turns the summed calls, self times and counters of a run
into the per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

MODULES = ("ff", "matgrp", "chartab", "homcount", "wordmap", "torsion", "charbound", "cli")
PRIVATE = {"matgrp": ("_cache_load",), "chartab": ("_cache_load",)}
METHODS = {
    ("ff", "FieldSpec"): ("vec_add", "vec_neg", "vec_mul", "vec_inv", "add_code", "neg_code",
                          "sub_code", "mul_code", "inv_code", "pow_code"),
    ("matgrp", "GroupContext"): ("_compute_classes",),
    ("homcount", "ScanKernel"): ("__init__", "eval_word_vec"),
}


class Tracer:
    def __init__(self):
        self.active = False
        self.job = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._local = threading.local()
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self.spans = {"id": array("q"), "name": array("i"), "start": array("d"),
                      "end": array("d"), "parent": array("q"), "job": array("i")}
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, hook=None):
        """fn with a span around every call.

        hook is (before, after): before(args) returns a token and
        after(args, result, seconds, token) adds counters.
        """
        before, after = hook or (None, None)
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            frame = [sid, 0.0]
            token = before(args) if before is not None else None
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                with self._lock:
                    self.counts[f"raised.{type(e).__name__}"] += 1
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[1] += dur
                with self._lock:
                    self.calls[name] += 1
                    self.self_s[name] += dur - frame[1]
                    sp = self.spans
                    sp["id"].append(sid)
                    sp["name"].append(nid)
                    sp["start"].append(t0)
                    sp["end"].append(t1)
                    sp["parent"].append(parent[0] if parent is not None else -1)
                    sp["job"].append(self.job)
            if after is not None:
                with self._lock:
                    after(args, result, dur, token)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, hook=None):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), hook))

    def write(self, path: str):
        np.savez_compressed(path, names=np.array(self.names),
                            **{k: np.frombuffer(v, dtype=v.typecode) for k, v in self.spans.items()})

    def summary(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts), "spans": len(self.spans["id"])}


def install(tracer: Tracer, package) -> None:
    """Wrap the public functions of each program module, plus the hooks below."""
    hooks = _hooks(tracer)
    for mod_name in MODULES:
        mod = getattr(package, mod_name, None)
        if mod is None:  # cli is imported only where a workload runs it
            continue
        names = [n for n, obj in vars(mod).items()
                 if not n.startswith("_") and callable(obj) and not inspect.isclass(obj)
                 and getattr(obj, "__module__", None) == mod.__name__]
        for attr in sorted(names) + list(PRIVATE.get(mod_name, ())):
            tracer.patch(mod, attr, f"{mod_name}.{attr}", hooks.get(f"{mod_name}.{attr}"))
    for (mod_name, cls_name), attrs in METHODS.items():
        cls = getattr(getattr(package, mod_name), cls_name)
        for attr in attrs:
            name = f"{mod_name}.{cls_name}.{attr}"
            tracer.patch(cls, attr, name, hooks.get(name))


def _hooks(tracer: Tracer) -> dict:
    """(before, after) counter hooks by span name."""
    c = tracer.counts

    def vec(args, result, dur, token):
        c["ff.vec_elems"] += int(np.size(result))

    def uncached_build(args, result, dur, token):
        kind, n, field = args[:3]
        c["matgrp.candidates"] += field.q ** (n * n)
        c["matgrp.elements"] += result.order

    def compute_classes(args, result, dur, token):
        c["matgrp.classes"] += len(args[0]._classes)

    def det(args, result, dur, token):
        c["matgrp.det_mats"] += int(np.size(result))

    def matmul(args, result, dur, token):
        n = result.shape[-1]
        c["matgrp.matmul_mats"] += int(result.size) // (n * n)

    def group_cache(args, result, dur, token):
        c["matgrp.cache_hits" if result is not None else "matgrp.cache_misses"] += 1

    def table_cache(args, result, dur, token):
        if result is not None:
            c["chartab.cache_hits"] += 1

    def table(args, result, dur, hits_before):
        # a computed table took `attempts` Schur attempts, one of them useful;
        # a cached table did no attempts
        if c["chartab.cache_hits"] == hits_before:
            c["chartab.computed"] += 1
            c["chartab.schur_attempts"] += result.attempts

    def cmat(args, result, dur, token):
        c["chartab.struct_consts"] += int(result.size)

    def word_hist(args, result, dur, token):
        ctx, word = args[:2]
        if word.max_gen:
            c["homcount.tuples"] += ctx.order ** word.max_gen

    def bruteforce(args, result, dur, kernels_before):
        # presentations the shortcut decides build no kernel and scan nothing
        pres, ctx = args[:2]
        if c["homcount.kernels"] != kernels_before:
            c["homcount.tuples"] += ctx.order ** pres.generators

    def comm_hist(args, result, dur, token):
        c["homcount.tuples"] += args[0].order ** 2

    def sq_hist(args, result, dur, token):
        c["homcount.tuples"] += args[0].order

    def kernel_init(args, result, dur, had_table):
        kern = args[0]
        c["homcount.kernels"] += 1
        if not had_table and kern.cayley is not None:
            c["homcount.cayley_builds"] += 1
            c["homcount.cayley_bytes"] += int(kern.cayley.nbytes)
            tracer.self_s["homcount.cayley"] += dur

    def eval_vec(args, result, dur, token):
        c["homcount.eval_elems"] += len(args[4])

    def double(args, result, dur, token):
        w1, w2, ctx = args[:3]
        c["wordmap.double_tuples"] += ctx.order ** max(w1.max_gen, w2.max_gen, 1)

    def an(args, result, dur, token):
        c["torsion.an_funcs"] += len(result)

    def bk(args, result, dur, token):
        c["torsion.bk_sets"] += len(result)

    def reps(args, result, dur, token):
        c["charbound.reps"] += len(result)

    def subspaces(args, result, dur, token):
        c["charbound.subspaces"] += len(result)

    def after(fn):
        return None, fn

    return {
        **{f"ff.FieldSpec.{m}": after(vec) for m in ("vec_add", "vec_neg", "vec_mul", "vec_inv")},
        "matgrp.group_build_uncached": after(uncached_build),
        "matgrp.GroupContext._compute_classes": after(compute_classes),
        "matgrp.vec_det": after(det),
        "matgrp.vec_matmul": after(matmul),
        "matgrp._cache_load": after(group_cache),
        "chartab._cache_load": after(table_cache),
        "chartab.character_table": (lambda args: c["chartab.cache_hits"], table),
        "chartab.class_matrices": after(cmat),
        "homcount.word_histogram": after(word_hist),
        "homcount.hom_count_bruteforce": (lambda args: c["homcount.kernels"], bruteforce),
        "homcount.commutator_histogram": after(comm_hist),
        "homcount.squaring_histogram": after(sq_hist),
        "homcount.ScanKernel.__init__": (
            lambda args: getattr(args[1], "_cayley", None) is not None, kernel_init),
        "homcount.ScanKernel.eval_word_vec": after(eval_vec),
        "wordmap.double_word_stats": after(double),
        "torsion.a_n": after(an),
        "torsion.b_k": after(bk),
        "charbound.semisimple_representatives": after(reps),
        "charbound.all_subspaces_rref": after(subspaces),
    }


# ---------------------------------------------------------------------------
# per-layer metrics from summed trace data

FORMULAS = ("commutator_count", "surface_hom_count", "fs_squares_count", "quad_class_count")


def layer_metrics(calls: dict, self_s: dict, counts: dict, spans: int) -> dict:
    """name -> (value, unit) for every per-layer metric."""

    def n(*names):
        return sum(calls.get(x, 0) for x in names)

    def s(*names):
        return sum(self_s.get(x, 0.0) for x in names)

    def cnt(name):
        return counts.get(name, 0)

    vec = [f"ff.FieldSpec.{m}" for m in ("vec_add", "vec_neg", "vec_mul", "vec_inv")]
    scalar = [f"ff.FieldSpec.{m}" for m in ("add_code", "neg_code", "sub_code", "mul_code",
                                            "inv_code", "pow_code")]
    poly = [x for x in set(calls) | set(self_s) if x.startswith("ff.poly_")]
    formulas = [f"homcount.{f}" for f in FORMULAS]
    scans = ["homcount.word_histogram", "homcount.hom_count_bruteforce"]
    pairs = ["homcount.commutator_histogram", "homcount.squaring_histogram"]
    computed = cnt("chartab.computed")
    attempts = cnt("chartab.schur_attempts")
    m = {
        "ff.vec_calls": (n(*vec), "count"),
        "ff.vec_elems": (cnt("ff.vec_elems"), "count"),
        "ff.vec_s": (s(*vec), "s"),
        "ff.scalar_calls": (n(*scalar), "count"),
        "ff.scalar_s": (s(*scalar), "s"),
        "ff.poly_calls": (n(*poly), "count"),
        "ff.poly_s": (s(*poly), "s"),
        "matgrp.builds": (n("matgrp.group_build"), "count"),
        "matgrp.build_s": (s("matgrp.group_build", "matgrp.group_build_uncached"), "s"),
        "matgrp.candidates": (cnt("matgrp.candidates"), "count"),
        "matgrp.elements": (cnt("matgrp.elements"), "count"),
        "matgrp.classes": (cnt("matgrp.classes"), "count"),
        "matgrp.classes_s": (s("matgrp.GroupContext._compute_classes"), "s"),
        "matgrp.det_mats": (cnt("matgrp.det_mats"), "count"),
        "matgrp.det_s": (s("matgrp.vec_det"), "s"),
        "matgrp.matmul_mats": (cnt("matgrp.matmul_mats"), "count"),
        "matgrp.matmul_s": (s("matgrp.vec_matmul"), "s"),
        "matgrp.charpoly_calls": (n("matgrp.char_poly"), "count"),
        "matgrp.charpoly_s": (s("matgrp.char_poly"), "s"),
        "matgrp.cache_hits": (cnt("matgrp.cache_hits"), "count"),
        "matgrp.cache_misses": (cnt("matgrp.cache_misses"), "count"),
        "chartab.tables": (n("chartab.character_table"), "count"),
        "chartab.table_s": (s("chartab.character_table"), "s"),
        "chartab.cmat_s": (s("chartab.class_matrices"), "s"),
        "chartab.struct_consts": (cnt("chartab.struct_consts"), "count"),
        "chartab.schur_attempts": (attempts, "count"),
        "chartab.useful_attempt_ratio": (computed / attempts if attempts else 0.0, "ratio"),
        "chartab.cache_hits": (cnt("chartab.cache_hits"), "count"),
        "homcount.formula_calls": (n(*formulas), "count"),
        "homcount.formula_s": (s(*formulas), "s"),
        "homcount.rounding_failures": (cnt("raised.RoundingFailure"), "count"),
        "homcount.scans": (n(*scans), "count"),
        "homcount.scan_s": (s(*scans), "s"),
        "homcount.tuples": (cnt("homcount.tuples"), "count"),
        "homcount.eval_calls": (n("homcount.ScanKernel.eval_word_vec"), "count"),
        "homcount.eval_elems": (cnt("homcount.eval_elems"), "count"),
        "homcount.kernels": (n("homcount.ScanKernel.__init__"), "count"),
        "homcount.cayley_builds": (cnt("homcount.cayley_builds"), "count"),
        "homcount.cayley_s": (s("homcount.cayley"), "s"),
        "homcount.cayley_mb": (cnt("homcount.cayley_bytes") / 2**20, "MB"),
        "homcount.pair_s": (s(*pairs), "s"),
        "homcount.conv_calls": (n("homcount.element_convolution"), "count"),
        "homcount.conv_s": (s("homcount.element_convolution"), "s"),
        "wordmap.fiber_s": (s("wordmap.fiber_count"), "s"),
        "wordmap.double_s": (s("wordmap.double_word_stats"), "s"),
        "wordmap.double_tuples": (cnt("wordmap.double_tuples"), "count"),
        "wordmap.ct_s": (s("wordmap.commutative_transitivity_check"), "s"),
        "wordmap.fit_s": (s("wordmap.dimension_estimate"), "s"),
        "torsion.an_s": (s("torsion.a_n"), "s"),
        "torsion.an_funcs": (cnt("torsion.an_funcs"), "count"),
        "torsion.witness_s": (s("torsion.decomposition_witness"), "s"),
        "torsion.witnesses": (n("torsion.decomposition_witness"), "count"),
        "torsion.mu3_calls": (n("torsion.contains_affine_mu3"), "count"),
        "torsion.mu3_s": (s("torsion.contains_affine_mu3"), "s"),
        "torsion.inbk_calls": (n("torsion.in_b_k"), "count"),
        "torsion.bk_s": (s("torsion.b_k"), "s"),
        "torsion.bk_sets": (cnt("torsion.bk_sets"), "count"),
        "torsion.multcheck_s": (s("torsion.class_multiplicity_check"), "s"),
        "charbound.reps": (cnt("charbound.reps"), "count"),
        "charbound.reps_s": (s("charbound.semisimple_representatives"), "s"),
        "charbound.formula_s": (s("charbound.fixed_subspace_count"), "s"),
        "charbound.brute_s": (s("charbound.fixed_subspace_bruteforce"), "s"),
        "charbound.subspaces": (cnt("charbound.subspaces"), "count"),
        "charbound.bound_s": (s("charbound.fixed_subspace_bound_check",
                                "charbound.character_bound_check"), "s"),
        "cli.import_s": (cnt("cli.import_s"), "s"),
        "cli.run_s": (s("cli.run"), "s"),
        "cli.out_bytes": (cnt("cli.out_bytes"), "count"),
        "cli.nonzero_exits": (cnt("cli.nonzero_exits"), "count"),
        "trace.spans": (spans, "count"),
    }
    return m
