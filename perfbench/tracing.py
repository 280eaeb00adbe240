"""Spans and counts around affsat's public functions, installed from outside.

The traced client replaces module and class attributes of an imported affsat
with wrappers; nothing under src/ changes.  Module code calls these names
through attribute or global lookup at call time (`crystal.generate_crystal`,
`kernels.expand_level`, `self.to_json_obj`), so the wrappers see the calls
between layers as well as the calls from the benchmark.  A name a module
imported with `from ... import` is a binding of its own: cli's
canonical_dumps is wrapped beside crystal's, under the same span name.

A span is (name, start, end, parent span index, query id).  Spans stay in
memory and are written once, when the run ends.  Hot inner calls (Weight
construction, the per-factor signature scan) are counted without a span,
so their time stays in the span that called them.

fock lies on no workload path and its kernels are counted under kernels,
so it stays unmeasured.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import time
from collections import defaultdict

SPANNED = {
    "cli": ("main", "cache_get_or_build", "dot_from_graph_json"),
    "crystal": ("generate_crystal", "weight_multiplicity", "levi_branching",
                "tensor_highest_weights", "tensor_weight_multiplicity", "canonical_dumps"),
    "kernels": ("expand_level",),
    "freudenthal": ("freudenthal_multiplicity",),
    "satake": ("enumerate_leaves", "sheaf_multiplicity_table",
               "attracting_component_count", "tensor_fixed_points"),
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.query_id = None
        self.quiet = False  # set while a hook calls affsat itself
        self.gc_s = 0.0
        self._gc_start = None

    # -- wrappers ---------------------------------------------------------

    def span(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace owner.attr with a wrapper recording one span per call.

        before(args, kwargs) runs ahead of the call and its value is passed
        to after(state, result, args, kwargs), both outside the span.
        """
        fn = getattr(owner, attr)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.quiet:
                return fn(*args, **kwargs)
            state = before(args, kwargs) if before else None
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.query_id)
            if after:
                after(state, result, args, kwargs)
            return result

        setattr(owner, attr, wrapper)

    def count(self, owner, attr: str, name: str, measure=None) -> None:
        """Replace owner.attr with a wrapper adding 1 (or measure(result)) to a count."""
        fn = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name] += measure(result) if measure else 1
            return result

        setattr(owner, attr, wrapper)

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_s += time.perf_counter() - self._gc_start
            self.counts["py.gc_collections"] += 1
            self._gc_start = None

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every measured affsat module."""
        from affsat import cartan, cli, crystal, freudenthal, satake
        from affsat._backend import kernels

        modules = {"cli": cli, "crystal": crystal, "kernels": kernels,
                   "freudenthal": freudenthal, "satake": satake}
        hooks = {
            ("cli", "cache_get_or_build"): (self._cache_before, self._cache_after),
            ("crystal", "generate_crystal"): (None, self._graph_after),
            ("satake", "enumerate_leaves"): (None, self._strata_after),
        }
        for layer, names in SPANNED.items():
            for attr in names:
                before, after = hooks.get((layer, attr), (None, None))
                self.span(modules[layer], attr, f"{layer}.{attr}", before, after)
        self.span(cli, "canonical_dumps", "crystal.canonical_dumps")
        self.span(crystal.CrystalGraph, "to_json_obj", "crystal.to_json_obj")
        self.count(crystal.CrystalGraph, "to_json_str", "crystal.serialize.bytes", measure=len)
        self.count(cartan.Weight, "__post_init__", "cartan.weights_constructed")
        # The compiled kernel calls its scan internally, out of reach.
        if kernels.IMPL == "python":
            self.counts["kernels.signature_scan.calls"] = 0
            self.count(kernels, "signature_scan", "kernels.signature_scan.calls")
        gc.callbacks.append(self._on_gc)

    def uninstall_gc(self) -> None:
        gc.callbacks.remove(self._on_gc)

    # -- hooks ------------------------------------------------------------

    def _cache_before(self, args, kwargs):
        from affsat import cli

        lam, budget, cache_dir = args[:3]
        if cache_dir is None:
            return None
        # The key costs a canonical_dumps call that is the tracer's, not the program's.
        self.quiet = True
        try:
            key = cli._cache_key(lam, tuple(int(x) for x in budget))
        finally:
            self.quiet = False
        path = os.path.join(cache_dir, f"{key}.json")
        return path, _stat(path)

    def _cache_after(self, state, result, args, kwargs) -> None:
        if state is None:
            return
        path, before = state
        after = _stat(path)
        if before is not None and before == after:
            self.counts["cli.cache.hits"] += 1
            self.counts["cli.cache.bytes_read"] += before[2]
            return
        self.counts["cli.cache.misses"] += 1
        if before is not None:
            self.counts["cli.cache.bytes_read"] += before[2]
        if after is not None:
            self.counts["cli.cache.bytes_written"] += after[2]

    def _graph_after(self, state, graph, args, kwargs) -> None:
        self.counts["crystal.generate.nodes"] += len(graph)
        self.counts["crystal.generate.edges"] += len(graph.edges)

    def _strata_after(self, state, strata, args, kwargs) -> None:
        self.counts["satake.strata"] += len(strata)

    # -- output -----------------------------------------------------------

    def dump(self, path) -> None:
        """Write the spans as JSON lines, then one line of counts."""
        with open(path, "w") as fh:
            for name, start, end, parent, qid in self.spans:
                fh.write(json.dumps([name, start, end, parent, qid]) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts), "gc_s": self.gc_s}) + "\n")


def _stat(path):
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return None
    return (st.st_ino, st.st_mtime_ns, st.st_size)


def load(path) -> tuple[list, dict, float]:
    spans = []
    with open(path) as fh:
        lines = fh.read().splitlines()
    for line in lines[:-1]:
        spans.append(json.loads(line))
    tail = json.loads(lines[-1])
    return spans, tail["counts"], tail["gc_s"]


def span_totals(spans, query_scale: dict) -> tuple[dict, dict, dict]:
    """Per span name: total time, self time (duration minus the time its
    child spans cover) and number of spans.  Each duration is multiplied by
    its query's entry in query_scale."""
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    durations = [(end - start) * query_scale[qid] for _, start, end, _, qid in spans]
    child = [0.0] * len(spans)
    for (name, start, end, parent, _), d in zip(spans, durations):
        if parent >= 0:
            child[parent] += d
    for index, ((name, start, end, parent, _), d) in enumerate(zip(spans, durations)):
        total[name] += d
        self_time[name] += d - child[index]
        calls[name] += 1
    return total, self_time, calls


# (metric, unit): the per-layer table.  kernels.signature_scan.calls is left
# out of the result when the active kernel is the compiled one.
PER_LAYER = [
    ("cli.main.self_s", "s"),
    ("cli.cache_get_or_build.self_s", "s"),
    ("cli.cache.hits", "count"),
    ("cli.cache.misses", "count"),
    ("cli.cache.bytes_read", "bytes"),
    ("cli.cache.bytes_written", "bytes"),
    ("cli.dot_from_graph_json.s", "s"),
    ("crystal.generate_crystal.self_s", "s"),
    ("crystal.generate_crystal.calls", "count"),
    ("crystal.generate.nodes", "count"),
    ("crystal.generate.edges", "count"),
    ("crystal.generate.nodes_per_s", "1/s"),
    ("crystal.generate.new_node_ratio", "ratio"),
    ("kernels.expand_level.s", "s"),
    ("kernels.expand_level.calls", "count"),
    ("kernels.signature_scan.calls", "count"),
    ("crystal.to_json_obj.s", "s"),
    ("crystal.canonical_dumps.s", "s"),
    ("crystal.serialize.bytes", "bytes"),
    ("cartan.weights_constructed", "count"),
    ("crystal.tensor_highest_weights.self_s", "s"),
    ("crystal.tensor_weight_multiplicity.self_s", "s"),
    ("crystal.weight_multiplicity.self_s", "s"),
    ("crystal.levi_branching.self_s", "s"),
    ("satake.enumerate_leaves.s", "s"),
    ("satake.sheaf_multiplicity_table.self_s", "s"),
    ("satake.attracting_component_count.self_s", "s"),
    ("satake.tensor_fixed_points.self_s", "s"),
    ("satake.strata", "count"),
    ("freudenthal.freudenthal_multiplicity.s", "s"),
    ("freudenthal.freudenthal_multiplicity.calls", "count"),
    ("py.gc_s", "s"),
    ("py.gc_collections", "count"),
    ("trace.overhead", "ratio"),
]


def layer_metrics(spans, counts: dict, gc_s: float, overhead: float,
                  query_scale: dict) -> dict:
    """The per-layer table from one traced run: {metric: (value, unit)}.
    Times are scaled like the end-to-end ones (see run.py)."""
    total, self_time, calls = span_totals(spans, query_scale)
    nodes = counts.get("crystal.generate.nodes", 0)
    edges = counts.get("crystal.generate.edges", 0)
    gen_calls = calls.get("crystal.generate_crystal", 0)
    gen_s = total.get("crystal.generate_crystal", 0.0)
    derived = {
        "crystal.generate.nodes_per_s": nodes / gen_s if gen_s else 0.0,
        "crystal.generate.new_node_ratio": (nodes - gen_calls) / edges if edges else 0.0,
        "py.gc_s": gc_s,
        "trace.overhead": overhead,
    }
    out = {}
    for metric, unit in PER_LAYER:
        if metric in derived:
            value = derived[metric]
        elif metric.endswith(".self_s"):
            value = self_time.get(metric[: -len(".self_s")], 0.0)
        elif metric.endswith(".calls") and metric[: -len(".calls")] in total:
            value = calls[metric[: -len(".calls")]]
        elif metric.endswith(".s"):
            value = total.get(metric[: -len(".s")], 0.0)
        elif metric == "kernels.signature_scan.calls" and metric not in counts:
            continue
        else:
            value = counts.get(metric, 0)
        out[metric] = (value, unit)
    return out
