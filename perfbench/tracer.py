"""Outside-in tracing of colorstats: spans and computed work counts recorded
by wrapping the package's public functions, with no change to the package.

Each wrapped function is replaced at every place a colorstats module holds
it by name, including module-level dispatch tables, so calls through
`from .x import f` and through `x.f` are both seen.  Spans are kept in
memory with their parent's id; self time is a span's duration minus the
part of it that its child spans cover.  Counts are computed from call
arguments and return values, not reported by the program.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import types
from collections import defaultdict
from statistics import median
from time import perf_counter

from workloads import multinomial

# the comparison buffer count_batch builds per chunk of rows (its default)
COUNT_BATCH_CHUNK = 4096

_MODEL_KIND = {"Gnp": "gnp", "GeometricTorus": "geo", "ConfigModel": "config", "ChungLu": "cl"}


def _one(key):
    return lambda args, result: {key: 1}


def _enumerate_counts(args, result):
    return {"oracle.colorings": result.total, "oracle.support": len(result.support)}


def _event_counts(args, result):
    return {"oracle.colorings": multinomial(args[0].classes)}


def _sample_batch_counts(args, result):
    return {
        "coloring.sample_batch.colorings": result.shape[0],
        "coloring.sample_batch.bytes": result.nbytes,
        "coloring.sample_batch.max_bytes": result.nbytes,
    }


def _count_batch_counts(args, result):
    g, colors = args[0], args[1]
    rows = colors.shape[0]
    # two gathered (rows, m) operands of the colour dtype and one bool result
    per_cell = 2 * colors.itemsize + 1
    return {
        "coloring.count_batch.edge_checks": rows * g.m,
        "coloring.count_batch.bytes": rows * g.m * per_cell,
        "coloring.count_batch.max_bytes": min(rows, COUNT_BATCH_CHUNK) * g.m * per_cell,
    }


def _generate_name(args):
    return "randgraph.generate." + _MODEL_KIND.get(type(args[0]).__name__, "other")


def _generate_counts(args, result):
    kind = _MODEL_KIND.get(type(args[0]).__name__)
    if kind == "config":  # counted by the config_sample call it makes
        return {}
    out = {"randgraph.graphs": 1, "randgraph.edges": result.m}
    if kind == "geo":
        # the (n, n, 2) float64 coordinate-difference array
        out["randgraph.generate.geo.max_bytes"] = args[0].n ** 2 * 2 * 8
    return out


def _config_counts(args, result):
    return {"randgraph.graphs": 1, "randgraph.edges": result.graph.m}


def _edges(key):
    return lambda args, result: {key + ".calls": 1, key + ".edges": result.m}


# (module, function, span name or a function of the call's arguments,
#  counter computed from (args, result) or None)
TARGETS = [
    ("cli", "main", "cli.main", None),
    ("experiments", "run_comparison", "experiments.run_comparison", None),
    ("experiments", "run_regime", "experiments.run_regime", None),
    ("experiments", "emit", "experiments.emit", None),
    ("randgraph", "generate", _generate_name, _generate_counts),
    ("randgraph", "config_sample", "randgraph.config_sample", _config_counts),
    ("randgraph", "ratio_monte_carlo", "randgraph.ratio_monte_carlo", None),
    ("randgraph", "ratio_closed_form", "randgraph.ratio_closed_form", None),
    ("randgraph", "assumption_star_check", "randgraph.assumption_star_check", None),
    ("oracle", "event_frequency", "oracle.event_frequency", _event_counts),
    ("oracle", "enumerate_colorings", "oracle.enumerate_colorings", _enumerate_counts),
    ("oracle", "exact_moments", "oracle.exact_moments", None),
    ("oracle", "run_verification", "oracle.verify", None),
    ("oracle", "verify_formulas", "oracle.verify", None),
    ("oracle", "verify_events", "oracle.verify", None),
    ("oracle", "corpus_graphs", "oracle.verify", None),
    ("moments", "full_report", "moments.full_report", _one("moments.full_report.calls")),
    *[("moments", f, "moments.formulas", None)
      for f in ("mean_Mi", "var_Mi", "var_common", "mean_M_L", "coefficients_ab", "rho")],
    ("coloring", "sample_batch", "coloring.sample_batch", _sample_batch_counts),
    ("coloring", "count_batch", "coloring.count_batch", _count_batch_counts),
    ("coloring", "prob_fixed_colors", "coloring.exact_probs", None),
    ("coloring", "prob_distinct_colors", "coloring.exact_probs", None),
    ("graph", "load_edge_list", "graph.load_edge_list", _edges("graph.load_edge_list")),
    *[("graph", f, "graph.generators", None)
      for f in ("regular_circulant", "star", "cycle", "path", "complete")],
    ("graph", "stats", "graph.stats", _one("graph.stats.calls")),
    *[("symfun", f, "symfun", None)
      for f in ("falling_factorial", "elementary_symmetric", "power_sum")],
    ("seeds", "stream", "seeds.stream", _one("seeds.stream.calls")),
]


class Tracer:
    """Span and count recorder shared by every wrapper of one process."""

    def __init__(self):
        self.spans: list = []  # (id, parent id, name, start, end, counts)
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # a worker thread's outermost span belongs to the call that
            # is blocked on the pool in the main thread
            main = self._main_stack
            parent = stack[-1] if stack else (main[-1] if main else None)
            sid = next(self._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            label = name(args) if callable(name) else name
            counts = counter(args, result) if counter else None
            self.spans.append((sid, parent, label, start, end, counts))
            return result

        return traced

    def reset(self) -> list:
        spans, self.spans = self.spans, []
        return spans


def install(tracer: Tracer) -> None:
    """Replace every target, wherever a colorstats module refers to it."""
    mods = {k.rpartition(".")[2]: v for k, v in sys.modules.items()
            if k == "colorstats" or k.startswith("colorstats.")}
    replace = {}
    for mod, attr, name, counter in TARGETS:
        fn = getattr(mods[mod], attr)
        replace[fn] = tracer.wrap(fn, name, counter)
    for mod in mods.values():
        for key, val in list(vars(mod).items()):
            if key.startswith("__"):
                continue
            if isinstance(val, types.FunctionType) and val in replace:
                setattr(mod, key, replace[val])
            elif isinstance(val, dict):  # dispatch tables such as graph._FAMILIES
                for k, v in val.items():
                    if isinstance(v, types.FunctionType) and v in replace:
                        val[k] = replace[v]

    graph_cls = mods["graph"].Graph
    from_edges = graph_cls.__dict__["from_edges"].__func__
    graph_cls.from_edges = classmethod(
        tracer.wrap(from_edges, "graph.from_edges", _edges("graph.from_edges")))
    degrees = functools.cached_property(
        tracer.wrap(graph_cls.__dict__["degrees"].func, "graph.degrees"))
    degrees.__set_name__(graph_cls, "degrees")
    graph_cls.degrees = degrees


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def summarize(spans) -> tuple[dict[str, float], dict[str, int]]:
    """Self seconds per span name and summed counts of one traced pass.
    Counts named `*.max_bytes` keep their maximum instead of a sum."""
    children = defaultdict(list)
    for sid, parent, _, start, end, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    self_s: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    for sid, _, name, start, end, cnt in spans:
        self_s[name] += (end - start) - _covered(children.get(sid, ()), start, end)
        for key, val in (cnt or {}).items():
            counts[key] = max(counts[key], val) if key.endswith("max_bytes") else counts[key] + val
    counts["trace.spans"] = len(spans)
    return dict(self_s), dict(counts)


def median_self(passes: list[dict[str, float]]) -> dict[str, float]:
    names = set().union(*passes)
    return {k: median(p.get(k, 0.0) for p in passes) for k in names}
