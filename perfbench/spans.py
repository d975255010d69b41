"""Spans and counters recorded from outside the program.

:func:`install` replaces public functions and methods of the program with
wrappers that record a span (name, start, end, parent) or bump a counter,
then call the original.  Nothing inside ``src/`` changes: a wrapped
module-level function is replaced in every loaded ``repro`` module that
imported it by name, so callers pick the wrapper up wherever they look it
up.  Spans stay in memory; :meth:`Tracer.dump` writes them at the end of the
run and :func:`layer_metrics` reduces them to the per-layer metrics.

Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from statistics import median


#: Kernel store / batch methods that test dominance (the kernel layer).
KERNEL_METHODS = (
    "any_dominates",
    "any_weakly_dominates",
    "block_dominated_mask",
    "mbr_block_dominated",
    "dominance_masks",
    "block_dominated_columns",
    "block_weakly_dominated",
    "mbb_candidates",
    "mbb_block_candidates",
    "pareto_mask",
    "record_block_dominated_mask",
    "record_block_dominated_columns",
    "covers_many",
)
#: Kernel methods that test one candidate per call (any other returns one
#: verdict per tested row).
SINGLE_ROW_METHODS = ("any_dominates", "any_weakly_dominates", "mbb_candidates")


class Tracer:
    """In-memory spans ``(id, parent, name, start, end)`` plus named counters."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: Counter[str] = Counter()
        self.values: defaultdict[str, list[float]] = defaultdict(list)
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: Spans before this index (and ``setup_values``) are set-up work.
        self.window_from = 0
        self.setup_values: dict[str, list[float]] = {}

    def mark_window(self) -> None:
        """Start the timed window: later spans and counts are the query path."""
        self.window_from = len(self.spans)
        self.setup_values = {key: list(items) for key, items in self.values.items()}
        self.counts.clear()
        self.values.clear()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [0]
        return stack

    def wrap(self, function, name: str, on_result=None):
        """``function`` recording a span ``name``; ``on_result(result, args)`` sees each return."""

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1]
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, parent, name, start, end))
            if on_result is not None:
                on_result(result, args)
            return result

        return traced

    def count(self, function, name: str):
        """``function`` bumping counter ``name`` on each call (no span)."""
        counts = self.counts

        @functools.wraps(function)
        def counted(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return counted

    def dump(self, path: str) -> None:
        """Write every span and counter as JSON (the end-of-run record)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"spans": self.spans, "counts": self.counts, "values": self.values},
                handle,
                separators=(",", ":"),
            )


def _replace_function(module_name: str, attr: str, replacement_of) -> None:
    """Swap a module-level function in its module and every ``repro`` importer."""
    original = getattr(sys.modules[module_name], attr)
    replacement = replacement_of(original)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "repro" and getattr(module, attr, None) is original:
            setattr(module, attr, replacement)


def _replace_method(cls, attr: str, replacement_of) -> None:
    raw = cls.__dict__.get(attr)
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(replacement_of(raw.__func__)))
    else:
        setattr(cls, attr, replacement_of(getattr(cls, attr)))


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    import repro.api
    import repro.core.mapping
    import repro.core.stss
    import repro.core.tdominance
    import repro.data.columns
    import repro.data.dataset
    import repro.delta.candidates
    import repro.delta.merge
    import repro.engine.batch
    import repro.engine.encodings
    import repro.engine.prefilter
    import repro.order.encoding
    import repro.order.intervals
    import repro.parallel.executor
    import repro.store.delta
    import repro.store.reader
    from repro.kernels import base as kernel_base
    from repro.kernels import get_kernel

    engine_cls = repro.engine.batch.BatchQueryEngine
    values = tracer.values

    def span(name, on_result=None):
        return lambda function: tracer.wrap(function, name, on_result)

    def counter(name):
        return lambda function: tracer.count(function, name)

    # data
    _replace_method(repro.data.dataset.Dataset, "__init__", span("data.ingest"))
    _replace_method(repro.data.columns.EncodedFrame, "from_dataset", span("data.encode"))

    # engine
    def on_prefilter(result, args):
        _schema, dataset, frame, _kernel = args
        values["engine.prefilter_rows"].append(len(frame if frame is not None else dataset))
        values["engine.prefilter_kept"].append(len(result))

    def on_query(result, args):
        tracer.counts["engine.queries"] += 1
        tracer.counts["engine.cache_hits"] += bool(result.from_cache)

    _replace_method(engine_cls, "__init__", span("engine.open"))
    _replace_function("repro.engine.prefilter", "prefilter_survivors", span("engine.prefilter", on_prefilter))
    _replace_method(engine_cls, "run_query", span("engine.run_query", on_query))

    # order
    _replace_method(repro.engine.encodings.EncodingCache, "encodings_for", span("order.encodings"))
    _replace_function("repro.order.encoding", "encode_domain", counter("order.encode_domain_calls"))
    _replace_method(repro.order.intervals.IntervalSet, "__init__", counter("order.interval_sets"))
    _replace_method(repro.order.intervals.Interval, "merge", counter("order.interval_merges"))

    # core + index
    def on_stss(result, args):
        stats = result.stats
        tracer.counts["core.stss_calls"] += 1
        tracer.counts["core.dominance_checks"] += stats.dominance_checks
        tracer.counts["core.points_examined"] += stats.points_examined
        tracer.counts["core.nodes_expanded"] += stats.nodes_expanded
        tracer.counts["core.skyline_points"] += len(result.skyline_ids)

    _replace_method(repro.core.mapping.TSSMapping, "__init__", span("core.mapping"))
    _replace_function("repro.core.stss", "stss_skyline", span("core.stss", on_stss))
    _replace_method(repro.core.tdominance.TDominanceChecker, "range_interval_set", counter("core.range_covers"))
    _replace_method(repro.core.mapping.TSSMapping, "build_rtree", span("index.build"))

    # kernels: the dominance-test methods of the active backend's classes
    kernel_module = sys.modules[type(get_kernel()).__module__]
    bases = (
        kernel_base.VectorStore,
        kernel_base.RecordStore,
        kernel_base.TDominanceStore,
        kernel_base.DominanceKernel,
    )

    def on_kernel(single_row):
        def on_result(result, args):
            tracer.counts["kernels.rows"] += 1 if single_row else len(result)

        return on_result

    for cls in vars(kernel_module).values():
        if isinstance(cls, type) and issubclass(cls, bases) and cls.__module__ == kernel_module.__name__:
            for method in KERNEL_METHODS:
                if hasattr(cls, method):
                    single_row = method in SINGLE_ROW_METHODS
                    _replace_method(cls, method, span("kernels", on_kernel(single_row)))

    # parallel
    def on_sharded(result, args):
        values["parallel.local_s"].append(result.seconds_local)
        values["parallel.merge_s"].append(result.seconds_merge)
        values["parallel.merge_checks"].append(result.merge_checks)
        values["parallel.merge_batches"].append(result.merge_batches)
        values["parallel.local_skyline"].append(sum(result.local_skyline_sizes))
        values["parallel.final_skyline"].append(len(result.skyline_ids))

    _replace_method(repro.parallel.executor.ShardedExecutor, "query", span("parallel.query", on_sharded))

    # delta
    _replace_method(engine_cls, "insert", span("delta.insert"))
    _replace_method(engine_cls, "delete", span("delta.delete"))
    _replace_function("repro.delta.merge", "cross_examine", span("delta.merge"))
    _replace_method(repro.delta.candidates.BaseCandidateTracker, "remove_rows", span("delta.tracker"))

    # store
    _replace_function("repro.api", "pack", span("store.pack"))
    _replace_method(repro.store.reader.DatasetStore, "open", span("store.open"))
    for method in ("append_inserts", "append_deletes"):
        _replace_method(repro.store.delta.DeltaLog, method, _log_append(tracer))
    # Auto-compaction runs inside insert/delete with no public entry point of
    # its own, so the compaction span wraps the engine's compaction step.
    _replace_method(engine_cls, "_compact_locked", span("store.compact"))


def _log_append(tracer: Tracer):
    """A log-append wrapper measuring the bytes each append adds to the file."""

    def replacement_of(original):
        traced = tracer.wrap(original, "store.log_append")

        @functools.wraps(original)
        def measured(self, ids, *args, **kwargs):
            before = os.path.getsize(self.path)
            result = traced(self, ids, *args, **kwargs)
            tracer.counts["store.log_bytes"] += os.path.getsize(self.path) - before
            tracer.counts["store.log_mutations"] += len(ids)
            return result

        return measured

    return replacement_of


# ---------------------------------------------------------------------- #
# Reduction to per-layer metrics
# ---------------------------------------------------------------------- #
def _durations(spans) -> tuple[dict, dict, dict]:
    """Per name: total duration, total self time and call count.

    A span nested in a span of the same name (a kernel method calling
    another) counts only through the outer one.
    """
    by_id = {span[0]: span for span in spans}
    child_time: defaultdict[int, float] = defaultdict(float)
    for span_id, parent, _name, start, end in spans:
        child_time[parent] += end - start
    total: defaultdict[str, float] = defaultdict(float)
    self_time: defaultdict[str, float] = defaultdict(float)
    calls: Counter[str] = Counter()
    for span_id, parent, name, start, end in spans:
        outer = by_id.get(parent)
        if outer is not None and outer[2] == name:
            continue
        total[name] += end - start
        self_time[name] += end - start - child_time[span_id]
        calls[name] += 1
    return total, self_time, calls


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The host-side per-layer metrics (0 where a layer did no work).

    Set-up spans (ingest, encode, open, prefilter, pack) report the median
    over the run's set-ups; query-path times and counts are per query (or
    per mutation for writes), so runs of different lengths compare.
    """
    setup = tracer.spans[: tracer.window_from]
    spans = tracer.spans[tracer.window_from :]
    counts = tracer.counts
    values = tracer.values
    setup_values = tracer.setup_values
    total, self_time, calls = _durations(spans)
    queries = counts["engine.queries"]
    computed = queries - counts["engine.cache_hits"]
    stss_calls = counts["core.stss_calls"]

    def per_setup(name):
        durations = [end - start for _, _, span_name, start, end in setup if span_name == name]
        return median(durations) if durations else 0.0

    compactions = [(s, e) for _, _, name, s, e in spans if name == "store.compact"]
    stall = max(
        (
            end - start
            for _, _, name, start, end in spans
            if name in ("delta.insert", "delta.delete")
            and any(start < c_end and c_start < end for c_start, c_end in compactions)
        ),
        default=0.0,
    )
    sharded = len(values["parallel.local_s"])
    local_sum = sum(values["parallel.local_s"])
    merge_sum = sum(values["parallel.merge_s"])
    return {
        "data.ingest_s": per_setup("data.ingest"),
        "data.encode_s": per_setup("data.encode"),
        "engine.open_s": per_setup("engine.open"),
        "engine.prefilter_s": per_setup("engine.prefilter"),
        "engine.prefilter_keep_ratio": _ratio(
            sum(setup_values.get("engine.prefilter_kept", ())),
            sum(setup_values.get("engine.prefilter_rows", ())),
        ),
        "engine.run_query_self_s": _ratio(self_time["engine.run_query"], queries),
        "engine.cache_hit_ratio": _ratio(counts["engine.cache_hits"], queries),
        "order.encodings_s": _ratio(total["order.encodings"], queries),
        "order.encode_domain_calls": _ratio(counts["order.encode_domain_calls"], queries),
        "order.interval_sets": _ratio(counts["order.interval_sets"], queries),
        "order.interval_merges": _ratio(counts["order.interval_merges"], queries),
        "core.mapping_s": _ratio(total["core.mapping"], queries),
        "core.stss_self_s": _ratio(self_time["core.stss"], queries),
        "core.dominance_checks": _ratio(counts["core.dominance_checks"], stss_calls),
        "core.points_examined": _ratio(counts["core.points_examined"], stss_calls),
        "core.nodes_expanded": _ratio(counts["core.nodes_expanded"], stss_calls),
        "core.range_covers": _ratio(counts["core.range_covers"], queries),
        "core.skyline_per_examined": _ratio(
            counts["core.skyline_points"], counts["core.points_examined"]
        ),
        "index.build_s": _ratio(total["index.build"], queries),
        "kernels.calls": _ratio(calls["kernels"], queries),
        "kernels.rows_per_call": _ratio(counts["kernels.rows"], calls["kernels"]),
        "kernels.s": _ratio(total["kernels"], queries),
        "parallel.local_s": _ratio(local_sum, sharded),
        "parallel.merge_s": _ratio(merge_sum, sharded),
        "parallel.merge_checks": _ratio(sum(values["parallel.merge_checks"]), sharded),
        "parallel.merge_batches": _ratio(sum(values["parallel.merge_batches"]), sharded),
        "parallel.merge_keep_ratio": _ratio(
            sum(values["parallel.final_skyline"]), sum(values["parallel.local_skyline"])
        ),
        "parallel.dispatch_s": _ratio(
            total["engine.run_query"] - local_sum - merge_sum, computed
        )
        if sharded
        else 0.0,
        "delta.insert_s": _ratio(total["delta.insert"], calls["delta.insert"]),
        "delta.delete_s": _ratio(total["delta.delete"], calls["delta.delete"]),
        "delta.merge_s": _ratio(total["delta.merge"], calls["delta.merge"]),
        "delta.merged_queries": float(calls["delta.merge"]),
        "delta.tracker_s": _ratio(total["delta.tracker"], calls["delta.tracker"]),
        "store.pack_s": per_setup("store.pack"),
        "store.open_s": per_setup("store.open"),
        "store.log_append_s": _ratio(total["store.log_append"], calls["store.log_append"]),
        "store.log_bytes_per_mutation": _ratio(
            counts["store.log_bytes"], counts["store.log_mutations"]
        ),
        "store.compact_s": _ratio(total["store.compact"], calls["store.compact"]),
        "store.compactions": float(calls["store.compact"]),
        "store.compact_stall_ms": stall * 1000.0,
    }


#: Per-layer metrics measured by the benchmark's own processes: the store
#: file, the service client, the caller's latencies and the host.
CLIENT_METRICS = (
    "store.store_mb",
    "store.bytes_per_row",
    "service.overhead_ms",
    "service.request_bytes",
    "service.response_bytes",
    "service.requests_served",
    "client.query_tail_ms",
    "client.write_p50_ms",
    "client.write_p90_ms",
    "host.probe_ms",
    "host.steal_pct",
    "trace.overhead_pct",
)


def layer_unit(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if "bytes" in name:
        return "B"
    for suffix, unit in (
        ("_s", "s"),
        (".s", "s"),
        ("_ms", "ms"),
        ("_mb", "MiB"),
        ("_pct", "%"),
        ("_ratio", "ratio"),
        ("_per_examined", "ratio"),
    ):
        if name.endswith(suffix):
            return unit
    return "count"


#: Per-layer metrics only serve-churn exercises: they read 0 on the batch
#: workloads, which report the other metrics only.
SERVE_METRICS = (
    "engine.cache_hit_ratio",
    "delta.insert_s",
    "delta.delete_s",
    "delta.merge_s",
    "delta.merged_queries",
    "delta.tracker_s",
    "store.log_append_s",
    "store.log_bytes_per_mutation",
    "store.compact_s",
    "store.compactions",
    "store.compact_stall_ms",
    "service.overhead_ms",
    "service.request_bytes",
    "service.response_bytes",
    "service.requests_served",
    "client.write_p50_ms",
    "client.write_p90_ms",
)


def all_layer_metrics(kind: str) -> list[str]:
    """The per-layer metric names a workload of ``kind`` reports, host-side first."""
    names = list(layer_metrics(Tracer())) + list(CLIENT_METRICS)
    return names if kind == "serve" else [name for name in names if name not in SERVE_METRICS]
