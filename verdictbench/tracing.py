"""Per-layer tracing of genpos from outside the package.

``Tracer.install`` replaces public functions of each layer with wrappers, at
the name each caller module bound them (``genpos.solver.gp_number`` is the
solver's view of the geometry layer, ``genpos.homology.int_rank`` the
homology layer's view of the kernels). Nothing under ``src/`` changes.

Coarse calls (the CLI entry, JSON I/O, solvers, complex builders, homology)
record one span each: name, layer, start, end, parent span and verdict.
Fine calls (predicates and kernels, up to millions per run) record no span;
they add their time and counts to per-verdict counters, so memory stays
bounded. Both kinds keep a stack of child time, so each layer's self time is
its wall time minus the time of the calls it made into other wrapped calls.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

LAYERS = ("cli", "jsonio", "solver", "geometry", "matroids", "complexes", "homology", "kernels")

# Per-layer metrics: unit, which way is better, and the end-to-end metric and
# workload each one should move.
METRICS = {
    "cli.self_s": ("s", "lower", "verdict_ms_p50 on decide"),
    "jsonio.self_s": ("s", "lower", "verdict_ms_p50 on decide"),
    "solver.self_s": ("s", "lower", "verdicts_per_s on decide"),
    "solver.unions_checked": ("count", "lower", "verdicts_per_s on decide"),
    "solver.union_cache_hit_ratio": ("ratio", "higher", "verdicts_per_s on decide"),
    "solver.gp_extends_calls": ("count", "lower", "verdicts_per_s on decide"),
    "solver.gp_extends_accept_ratio": ("ratio", "higher", "verdicts_per_s on decide"),
    "solver.gp_complex_faces": ("count", "lower", "verdicts_per_s on topology"),
    "geometry.self_s": ("s", "lower", "verdict_ms_p95 and ok_frac on degenerate"),
    "geometry.gp_number_calls": ("count", "lower", "verdict_ms_p95 and ok_frac on degenerate"),
    "geometry.gp_number_s": ("s", "lower", "verdict_ms_p95 and ok_frac on degenerate"),
    "geometry.gp_extends_calls": ("count", "lower", "verdict_ms_p95 and ok_frac on degenerate"),
    "geometry.gp_extends_accept_ratio": ("ratio", "higher", "verdict_ms_p95 on degenerate"),
    "matroids.self_s": ("s", "lower", "verdict_ms_p50 on decide, verdicts_per_s on topology"),
    "matroids.oracle_queries": ("count", "lower", "verdict_ms_p50 on decide"),
    "matroids.memo_hit_ratio": ("ratio", "higher", "verdicts_per_s on topology"),
    "matroids.complex_faces": ("count", "lower", "verdicts_per_s on topology"),
    "complexes.self_s": ("s", "lower", "verdicts_per_s on topology"),
    "complexes.faces_built": ("count", "lower", "verdicts_per_s on topology"),
    "homology.self_s": ("s", "lower", "verdict_ms_p95, ok_frac, peak_rss_mb on topology"),
    "homology.betti_s": ("s", "lower", "verdict_ms_p95, ok_frac, peak_rss_mb on topology"),
    "homology.rank_calls": ("count", "lower", "verdict_ms_p95 on topology"),
    "homology.rank_cells": ("count", "lower", "verdict_ms_p95 and peak_rss_mb on topology"),
    "homology.max_rank_cells": ("count", "lower", "peak_rss_mb on topology"),
    "kernels.self_s": ("s", "lower", "verdicts_per_s on decide and topology"),
    "kernels.gp_extends_s": ("s", "lower", "verdicts_per_s on decide"),
    "kernels.int_det_calls": ("count", "lower", "verdicts_per_s on decide (pure backend only)"),
    "kernels.int_rank_calls": ("count", "lower", "verdicts_per_s on topology"),
    "kernels.int_rank_s": ("s", "lower", "verdicts_per_s on topology"),
    "kernels.int_rank_cells": ("count", "lower", "verdicts_per_s on topology"),
    "trace.overhead_frac": ("frac", "lower", "none: the cost of tracing itself"),
}



def _cells(rows):
    return len(rows) * (len(rows[0]) if rows else 0)


def work_counts(totals):
    """The counters that count work, not time: they repeat exactly for the
    same instances."""
    return {k: int(v) for k, v in totals.items() if METRICS.get(k, ("count",))[0] != "s"}


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.origin = self.clock()
        self.stack = [0.0]  # child time of each open wrapped call
        self.span_stack = [None]
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counts = defaultdict(float)
        self.max_cells = 0
        self.spans = []
        self.verdicts = []
        self._open = None

    # -- wrappers ----------------------------------------------------------

    def timed(self, layer, fn, after=None, span=False):
        """Wrap fn as a call into ``layer``; ``after(args, result, seconds)``
        updates counters once the call returns."""
        stack, span_stack, self_s, clock = self.stack, self.span_stack, self.self_s, self.clock
        spans = self.spans
        name = getattr(fn, "__qualname__", repr(fn))

        def wrapper(*args, **kwargs):
            if span:
                sid = len(spans)
                spans.append(None)
                span_stack.append(sid)
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                self_s[layer] += dur - child
                stack[-1] += dur
                if span:
                    span_stack.pop()
                    spans[sid] = (sid, span_stack[-1], self._open, layer, name,
                                  t0 - self.origin, t0 + dur - self.origin)
            if after is not None:
                after(args, result, dur)
            return result

        return wrapper

    def counted(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, genpos):
        """Wrap every layer's public functions as their callers bound them."""
        mods = {n: sys.modules["genpos." + n] for n in
                ("cli", "jsonio", "solver", "geometry", "matroids", "homology")}
        cli, jsonio, solver = mods["cli"], mods["jsonio"], mods["solver"]
        geometry, matroids, homology = mods["geometry"], mods["matroids"], mods["homology"]
        counts = self.counts

        def patch(module, attr, layer, after=None, span=True):
            setattr(module, attr, self.timed(layer, getattr(module, attr), after, span))

        def faces(key):
            def after(args, result, dur):
                counts[key] += len(result.faces)
            return after

        patch(cli, "entry", "cli")
        for attr in ("load_doc", "family_from_doc", "family_to_doc", "points_from_doc",
                     "complex_from_doc", "complex_to_doc", "subcomplexes_from_doc",
                     "result_to_doc", "report_to_doc"):
            patch(jsonio, attr, "jsonio")
        for attr in ("check_condition", "solve_greedy", "solve_exhaustive",
                     "solve_matroid_intersection", "counterexample_family",
                     "independence_complex", "bound_table"):
            patch(solver, attr, "solver")
        patch(solver, "general_position_complex", "solver", faces("solver.gp_complex_faces"))
        for attr in ("matroid_intersection", "max_uniform_size", "rank"):
            patch(matroids, attr, "matroids")
        for attr in ("uniformity_complex", "independence_complex"):
            patch(matroids, attr, "matroids", faces("matroids.complex_faces"))
        for attr in ("completion", "induced", "join", "neighborhood", "nerve", "skeleton",
                     "star"):
            patch(cli, attr, "complexes", faces("complexes.faces_built"))
        patch(cli, "is_q_star", "complexes")
        patch(jsonio, "closure", "complexes", faces("complexes.faces_built"))

        def betti_done(args, result, dur):
            counts["homology.betti_s"] += dur

        patch(homology, "betti_up_to", "homology", betti_done)

        # predicates: no spans, counters only
        def gp_number_done(args, result, dur):
            counts["geometry.gp_number_calls"] += 1
            counts["geometry.gp_number_s"] += dur

        patch(solver, "gp_number", "geometry", gp_number_done, span=False)
        patch(cli, "gp_number", "geometry", gp_number_done, span=False)
        for attr in ("extend_gp", "in_general_position"):
            patch(solver, attr, "geometry", span=False)

        def affine_done(args, result, dur):
            counts["matroids.affine_tests"] += 1

        patch(matroids, "affinely_independent", "geometry", affine_done, span=False)

        family = solver.PointFamily
        union = self.timed("solver", family.gp_number_of_union)

        def gp_number_of_union(fam, indices):
            hit = frozenset(indices) in fam._gp_cache
            counts["solver.unions_checked"] += 1
            counts["solver.union_cache_hits"] += hit
            return union(fam, indices)

        family.gp_number_of_union = gp_number_of_union
        oracle_cls = matroids.IndependenceOracle
        oracle_cls.is_independent = self.counted("matroids.oracle_queries",
                                                 oracle_cls.is_independent)

        # kernels, as each caller module bound them
        for module, owner in ((geometry, "geometry"), (solver, "solver")):
            def gp_extends_done(args, result, dur, owner=owner):
                counts["kernels.gp_extends_s"] += dur
                counts[owner + ".gp_extends_calls"] += 1
                counts[owner + ".gp_extends_accepts"] += bool(result)

            patch(module, "gp_extends", "kernels", gp_extends_done, span=False)

        def rank_done(in_homology):
            def after(args, result, dur):
                cells = _cells(args[0])
                counts["kernels.int_rank_calls"] += 1
                counts["kernels.int_rank_s"] += dur
                counts["kernels.int_rank_cells"] += cells
                if in_homology:
                    counts["homology.rank_calls"] += 1
                    counts["homology.rank_cells"] += cells
                    self.max_cells = max(self.max_cells, cells)
            return after

        patch(homology, "int_rank", "kernels", rank_done(True), span=False)
        patch(geometry, "int_rank", "kernels", rank_done(False), span=False)
        if genpos.kernel_backend() == "pure":
            pure = sys.modules["genpos._kernels.pure"]
            patch(pure, "int_rank", "kernels", rank_done(False), span=False)
            pure.int_det = self.counted("kernels.int_det_calls", pure.int_det)

    # -- verdict bookkeeping -------------------------------------------------

    def begin(self, pass_no, index, kind):
        self._open = (pass_no, index)
        self._counts0 = dict(self.counts)
        self._self0 = dict(self.self_s)
        self.max_cells = 0
        self._kind = kind

    def end(self):
        counts = {k: v - self._counts0.get(k, 0) for k, v in self.counts.items()}
        counts = {k: v for k, v in counts.items() if v}
        if self.max_cells:
            counts["homology.max_rank_cells"] = self.max_cells
        self_s = {k: v - self._self0[k] for k, v in self.self_s.items()}
        pass_no, index = self._open
        self.verdicts.append({"pass": pass_no, "verdict": index, "kind": self._kind,
                              "counters": counts, "self_s": self_s})
        self._open = None

    # -- results -------------------------------------------------------------

    def per_pass(self):
        """Counters and self times summed over each pass, by pass number."""
        out = {}
        for v in self.verdicts:
            acc = out.setdefault(v["pass"], defaultdict(float))
            for k, x in v["counters"].items():
                if k == "homology.max_rank_cells":
                    acc[k] = max(acc[k], x)
                else:
                    acc[k] += x
            for layer, x in v["self_s"].items():
                acc[layer + ".self_s"] += x
        return out

    def metrics(self, overhead_frac):
        """Per-layer metrics for one pass: times averaged over the passes,
        counts from the first pass (every pass runs the same instances)."""
        passes = self.per_pass()
        n = len(passes)
        first = passes[min(passes)]
        total = defaultdict(float)
        for acc in passes.values():
            for k, x in acc.items():
                total[k] += x

        def count(key):
            return first.get(key, 0)

        def ratio(num, den):
            return num / den if den else 0.0

        values = {}
        for name, (unit, _, _) in METRICS.items():
            if unit == "s":
                values[name] = total.get(name, 0.0) / n
            elif unit == "count":
                values[name] = count(name)
        values["solver.union_cache_hit_ratio"] = ratio(
            count("solver.union_cache_hits"), count("solver.unions_checked"))
        for layer in ("solver", "geometry"):
            values[layer + ".gp_extends_accept_ratio"] = ratio(
                count(layer + ".gp_extends_accepts"), count(layer + ".gp_extends_calls"))
        queries = count("matroids.oracle_queries")
        values["matroids.memo_hit_ratio"] = 1 - ratio(count("matroids.affine_tests"), queries) \
            if queries else 0.0
        values["trace.overhead_frac"] = overhead_frac
        return {name: {"value": values[name], "unit": METRICS[name][0]} for name in METRICS}
