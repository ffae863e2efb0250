"""Span tracing around presdim's public functions, installed from outside.

The tracer replaces each named function with a wrapper that records a span
(name, start, end, parent) on entry and exit. Nothing under ``src/`` is
edited: the wrapper is written into every loaded ``presdim`` module that
holds the original object, so ``from .graph import diameter`` call sites are
traced as well as ``graph.diameter`` ones. Spans stay in memory until
``write`` is called once at the end of the run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
import tracemalloc
from array import array

# (module, attribute, span name). A dotted attribute names a method.
TRACED = (
    ("presdim.graph", "gen_gnp", "graph.gen_gnp"),
    ("presdim.graph", "gen_planted_partition", "graph.gen_planted_partition"),
    ("presdim.graph", "diameter", "graph.diameter"),
    ("presdim.graph", "bfs_distances", "graph.bfs_distances"),
    ("presdim.graph", "Graph.induced", "graph.induced"),
    ("presdim.graph", "all_pairs_distances", "graph.all_pairs_distances"),
    ("presdim.graph", "read_edge_list", "graph.read_edge_list"),
    ("presdim.partition", "clique_number", "partition.clique_number"),
    ("presdim.partition", "independence_number", "partition.independence_number"),
    ("presdim.partition", "clique_cover", "partition.clique_cover"),
    ("presdim.bounds", "report", "bounds.report"),
    ("presdim.bounds", "lower_clique_partition", "bounds.lower_clique_partition"),
    ("presdim.bounds", "lower_neighborhood", "bounds.lower_neighborhood"),
    ("presdim.bounds", "upper_bounds", "bounds.upper_bounds"),
    ("presdim.construct", "shortest_path_metric", "construct.shortest_path_metric"),
    ("presdim.construct", "clique_collapse_linf", "construct.clique_collapse_linf"),
    ("presdim.construct", "pseudo_metric_embedding", "construct.pseudo_metric_embedding"),
    ("presdim.construct", "frechet_embedding", "construct.frechet_embedding"),
    ("presdim.construct", "frechet_quotient_embedding", "construct.frechet_quotient_embedding"),
    ("presdim.construct", "schoenberg_embedding", "construct.schoenberg_embedding"),
    ("presdim.construct", "simplex_embedding", "construct.simplex_embedding"),
    ("presdim.construct", "result_to_json", "construct.result_to_json"),
    ("presdim.construct", "result_from_json", "construct.result_from_json"),
    ("presdim.metric", "PointSet.distance_matrix", "metric.distance_matrix"),
    ("presdim.metric", "doubling_dimension", "metric.doubling_dimension"),
    ("presdim.metric", "covering_number", "metric.covering_number"),
    ("presdim.preserve", "check", "preserve.check"),
    ("presdim.experiment", "sweep", "experiment.sweep"),
    ("presdim.experiment", "mc_diameter2", "experiment.mc_diameter2"),
    ("presdim.experiment", "mc_clique_number", "experiment.mc_clique_number"),
    ("presdim.cli", "main", "cli.main"),
)


def _doubling_name(args, kwargs) -> str:
    mode = kwargs.get("mode", args[1] if len(args) > 1 else "exact")
    return f"metric.doubling_dimension.{mode}"


def _sweep_rows(args, kwargs, result) -> int:
    return len(result)


def _mc_trials(args, kwargs, result) -> int:
    return int(result.trials)


# Span names that depend on the call's arguments.
NAME_OF = {"metric.doubling_dimension": _doubling_name}
# Work units counted per call, for the per-row and per-trial metrics.
UNITS_OF = {
    "experiment.sweep": _sweep_rows,
    "experiment.mc_diameter2": _mc_trials,
    "experiment.mc_clique_number": _mc_trials,
}
# Calls whose peak heap growth is measured with tracemalloc (numpy reports
# its buffers to it), so the n x n x d intermediates show.
HEAP_PEAK = {"metric.distance_matrix"}


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.units: dict[str, int] = {}
        self.heap_peak_mb: dict[str, float] = {}
        self.round_starts: list[int] = []
        self._stack: list[int] = []

    def mark_round(self) -> None:
        """Note that a new round starts with the next span."""
        self.round_starts.append(len(self.start))

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        name_of = NAME_OF.get(name)
        units_of = UNITS_OF.get(name)
        heap = name in HEAP_PEAK

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name_of(args, kwargs) if name_of else name
            if heap:
                tracemalloc.start()
            idx = self._open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
                if heap:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    self.heap_peak_mb[span] = max(self.heap_peak_mb.get(span, 0.0), peak)
            if units_of:
                self.units[span] = self.units.get(span, 0) + units_of(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in TRACED, in every presdim module that holds it."""
        for modname, attr, name in TRACED:
            module = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth)))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("presdim") and getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)

    # -- aggregation -------------------------------------------------------

    def summary(self, first: int = 0, stop: int | None = None) -> dict[str, dict[str, float]]:
        """Per span name over spans ``first:stop``: calls, inclusive ms, self ms.

        Inclusive time counts only the outermost of nested spans of one name.
        Self time is a span's duration minus the time its child spans cover.
        """
        stop = len(self.start) if stop is None else stop
        dur = [self.end[i] - self.start[i] for i in range(stop)]
        child = [0.0] * stop
        for i in range(first, stop):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(first, stop):
            name = self.names[self.name_id[i]]
            row = out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["self_ms"] += (dur[i] - child[i]) * 1e3
            p = self.parent[i]
            while p >= 0 and self.name_id[p] != self.name_id[i]:
                p = self.parent[p]
            if p < 0:
                row["ms"] += dur[i] * 1e3
        return out

    def write(self, path: str, summary: dict) -> None:
        """Write every span and their summary, once, as gzipped JSON."""
        doc = {
            "names": self.names,
            "spans": {
                "name": self.name_id.tolist(),
                "start": self.start.tolist(),
                "end": self.end.tolist(),
                "parent": self.parent.tolist(),
            },
            "round_starts": self.round_starts,
            "summary": summary,
            "units": self.units,
            "heap_peak_mb": self.heap_peak_mb,
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)


# -- per-layer metrics -------------------------------------------------------------

_ANALYZE_P50 = ("latency_p50_ms", "analyze")
_CERTIFY_P50 = ("latency_p50_ms", "certify")
_CERTIFY_TAIL = ("latency_tail_ms", "certify")
_EXPERIMENT_OPS = ("ops_per_s", "experiment")
_DOUBLING = (("ops_per_s", "doubling"), ("latency_tail_ms", "doubling"))
_CONSTRUCTIONS = (
    "shortest_path_metric",
    "clique_collapse_linf",
    "pseudo_metric_embedding",
    "frechet_embedding",
    "frechet_quotient_embedding",
    "schoenberg_embedding",
    "simplex_embedding",
)

# metric -> (unit, better, the end-to-end metrics it should move, as
# (metric, workload)). A name ending in .ms is the inclusive busy time of the
# span named by its prefix, per round over the whole run; one ending in .calls
# is its call count in the first measured round, whose inputs depend only on
# the seed, so the count is exact.
LAYER_METRICS: dict[str, tuple[str, str, tuple[tuple[str, str], ...]]] = {
    "graph.gen_gnp.ms": ("ms", "lower", (_EXPERIMENT_OPS,)),
    "graph.gen_planted_partition.ms": ("ms", "lower", (_EXPERIMENT_OPS,)),
    "graph.diameter.ms": ("ms", "lower", (_EXPERIMENT_OPS, _ANALYZE_P50)),
    "graph.bfs_distances.calls": ("count", "lower", (_ANALYZE_P50, _EXPERIMENT_OPS)),
    "graph.induced.calls": ("count", "lower", (_ANALYZE_P50, _EXPERIMENT_OPS)),
    "graph.induced.ms": ("ms", "lower", (_ANALYZE_P50, _EXPERIMENT_OPS)),
    "graph.all_pairs_distances.ms": ("ms", "lower", (_CERTIFY_P50,)),
    "graph.read_edge_list.ms": ("ms", "lower", (_CERTIFY_P50,)),
    "partition.clique_number.ms": ("ms", "lower", (_EXPERIMENT_OPS,)),
    "partition.independence_number.ms": ("ms", "lower", (_ANALYZE_P50,)),
    "partition.clique_cover.ms": ("ms", "lower", (_ANALYZE_P50,)),
    "partition.clique_cover.calls": ("count", "lower", (_ANALYZE_P50,)),
    "bounds.report.ms": ("ms", "lower", (_ANALYZE_P50,)),
    "bounds.lower_clique_partition.ms": ("ms", "lower", (_ANALYZE_P50, _EXPERIMENT_OPS)),
    "bounds.lower_neighborhood.ms": ("ms", "lower", (_ANALYZE_P50, _EXPERIMENT_OPS)),
    "bounds.upper_bounds.ms": ("ms", "lower", (_ANALYZE_P50, _EXPERIMENT_OPS)),
    **{f"construct.{b}.ms": ("ms", "lower", (_CERTIFY_P50, _CERTIFY_TAIL)) for b in _CONSTRUCTIONS},
    "construct.result_to_json.ms": ("ms", "lower", (_CERTIFY_P50, _CERTIFY_TAIL)),
    "construct.result_from_json.ms": ("ms", "lower", (_CERTIFY_P50, _CERTIFY_TAIL)),
    "metric.distance_matrix.ms": ("ms", "lower", (("peak_rss_mb", "certify"), _CERTIFY_TAIL)),
    "metric.distance_matrix.rss_delta_mb": ("MB", "lower", (("peak_rss_mb", "certify"), _CERTIFY_TAIL)),
    "preserve.check.ms": ("ms", "lower", (_CERTIFY_P50, _ANALYZE_P50)),
    "preserve.check.calls": ("count", "lower", (_CERTIFY_P50, _ANALYZE_P50)),
    "metric.doubling_dimension.greedy.ms": ("ms", "lower", _DOUBLING),
    "metric.doubling_dimension.exact.ms": ("ms", "lower", _DOUBLING),
    "metric.covering_number.calls": ("count", "lower", _DOUBLING),
    "metric.covering_number.ms": ("ms", "lower", _DOUBLING),
    "experiment.sweep.ms_per_row": ("ms", "lower", (_EXPERIMENT_OPS,)),
    "experiment.mc_diameter2.ms_per_trial": ("ms", "lower", (_EXPERIMENT_OPS,)),
    "experiment.mc_clique_number.ms_per_trial": ("ms", "lower", (_EXPERIMENT_OPS,)),
    "cli.overhead_ms": ("ms", "lower", (_CERTIFY_P50,)),
    "trace.ops_per_s": ("1/s", "higher", ()),
}
# Layers that should reach the other workloads only during set-up.
SETUP_ONLY_ELSEWHERE = {"graph.gen_gnp.ms", "graph.gen_planted_partition.ms", "graph.diameter.ms"}


def layer_metrics(res: dict) -> dict[str, float]:
    """Per-layer metrics of a traced worker result (see LAYER_METRICS)."""
    summary, units, rounds = res["summary"], res["units"], res["rounds"]

    def field(span: str, key: str, table: dict = summary) -> float:
        return table.get(span, {}).get(key, 0)

    def per_unit(span: str) -> float:
        return field(span, "ms") / units[span] if units.get(span) else 0.0

    out: dict[str, float] = {}
    for metric in LAYER_METRICS:
        span, _, suffix = metric.rpartition(".")
        if suffix == "ms":
            out[metric] = field(span, "ms") / rounds
        elif suffix == "calls":
            out[metric] = field(span, "calls", res["first_round_summary"])
    out["metric.distance_matrix.rss_delta_mb"] = res["heap_peak_mb"].get("metric.distance_matrix", 0.0)
    out["experiment.sweep.ms_per_row"] = per_unit("experiment.sweep")
    out["experiment.mc_diameter2.ms_per_trial"] = per_unit("experiment.mc_diameter2")
    out["experiment.mc_clique_number.ms_per_trial"] = per_unit("experiment.mc_clique_number")
    calls = field("cli.main", "calls")
    out["cli.overhead_ms"] = field("cli.main", "self_ms") / calls if calls else 0.0
    out["trace.ops_per_s"] = len(res["latencies_s"]) / sum(res["round_wall_s"])
    return {m: out[m] for m in LAYER_METRICS}
