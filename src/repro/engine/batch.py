"""Batch evaluation of many skyline queries over one dataset.

A *batch query* re-specifies the preference DAG of some (or all) PO
attributes while the data stays fixed — the dynamic-preference scenario of
Section V of the paper, but answered for a whole set of queries at once.
:class:`BatchQueryEngine` amortizes two kinds of work across the batch:

* **Shared dominance work.**  Records with identical PO value combinations
  tie on every PO attribute under *every* possible preference DAG, so
  dominance between them is decided by the TO attributes alone.  The engine
  therefore partitions the data by PO combination once and keeps only each
  group's TO-Pareto front (one vectorized :meth:`pareto_mask
  <repro.kernels.base.DominanceKernel.pareto_mask>` call per group).  The
  dropped records are dominated under every query and can never appear in
  any skyline; every query then runs against the reduced rows — a row-index
  *view* over the shared frame, not a materialized copy.
* **Per-topology result caching.**  Queries are keyed by the *semantic*
  topology of their preference DAGs (values plus one closure bitmask per
  value, per PO attribute).  Two queries that induce the same preference
  relation — even through differently drawn Hasse diagrams — share one
  skyline computation.

Per query, the engine answers group at a time, as dTSS does (Section V):
the reduced rows are exactly the per-group local skylines of Section V-B, so
rows inside one group never dominate each other, and a row of another group
dominates one exactly when it is no worse on every TO attribute and its
group's values are preferred-or-equal on every PO attribute.  Only the PO
preferences change from query to query, so when the engine opens it indexes
its candidates' **TO-dominance graph**
(:func:`~repro.engine.groups.build_graph`): every ordered pair of
candidates in different groups where the first is no worse than the second
on every TO attribute, in int32 pair lists.  A query then checks each pair
against its DAGs' closure bits, one lookup per pair and PO attribute, and
drops every candidate some passing pair points at
(:func:`~repro.engine.groups.graph_skyline_rows`) — no interval encoding,
mapping, R-tree or sTSS.  A candidate set whose graph would exceed
:data:`~repro.engine.groups.GRAPH_PAIRS_PER_CANDIDATE` pairs per candidate
(or whose build would pass
:data:`~repro.engine.groups.GRAPH_COMPARISONS_PER_CANDIDATE` comparisons)
keeps the **level sweep** (:func:`~repro.engine.groups.skyline_rows`):
groups bucketed by the sum of their values' DAG depths, each level checked
against the rows kept so far in one batched weak t-dominance call over the
same closure bits.  :meth:`~BatchQueryEngine.summary` names the path in
use.  The result cache is a bounded LRU map (``cache_size``) so a
long-running service cannot grow memory without limit.

**Live mutations** ride on the columnar delta plane
(:mod:`repro.delta`): :meth:`BatchQueryEngine.insert` encodes new rows into
an append-only :class:`~repro.delta.frame.DeltaFrame` over the immutable
base and :meth:`BatchQueryEngine.delete` tombstones stable record ids.
Base rows and inserts share one row space, and the per-group fronts live in
one :class:`~repro.delta.candidates.BaseCandidateTracker`, which a mutation
updates at write time for the groups it touches only: an insert folds into
its group's front, deleting a front row recomputes its group (resurrecting
rows the front was masking).  Queries then read the one candidate set the
same way whether or not the data changed; a mutation that changed a front
clears the result cache and rebuilds the graph under the write latch, so the
graph always holds the pairs of the current candidates.
The delta frame is the one owner of row identity (the ``row -> stable id``
mapping and the id high-water mark), and the tracker the one owner of the
candidates.  Store-backed engines persist every mutation in a crash-safe
sidecar :class:`~repro.store.delta.DeltaLog`.  Once ``compact_threshold``
mutations accumulate, the delta is folded into a fresh base (for a store, a
freshly packed file swapped in by an atomic ``os.replace``; ids survive via
its ``row_ids`` section).  Compaction only renumbers: the live rows keep
their order in the new base, so each candidate's new row is its position
among them, the tracked fronts carry over as they are and so do the graph's
pairs, which index candidate positions.  It runs no prefilter and builds no
graph.

The engine is a concurrency-safe façade: :meth:`BatchQueryEngine.run_query`
may be called from many threads at once.  Queries synchronize on a
per-``dag_signature`` lock — concurrent queries over *distinct* topologies
interleave freely, while concurrent
queries over the *same* topology elect one computing thread and serve the
rest from the shared result cache.  Mutations are writers: a small
read/write latch lets any number of queries overlap each other but never a
mutation.  Counters and :meth:`summary` snapshots are kept consistent under
a dedicated state lock.
"""

from __future__ import annotations

import os
import threading
import time
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.store.reader import DatasetStore

from repro.config import resolve_compact_threshold
from repro.data.columns import EncodedFrame
from repro.data.dataset import Dataset
from repro.delta.candidates import BaseCandidateTracker, GroupKey
from repro.delta.frame import DeltaFrame, dataset_from_frame
from repro.engine.groups import (
    CandidateGraph,
    build_graph,
    graph_skyline_rows,
    skyline_rows,
)
from repro.engine.prefilter import prefilter_survivors
from repro.engine.encodings import (
    DagKey,
    QuerySpec,
    TopologyKey,
    dag_signature,
    resolve_query_dags,
    topology_key,
)
from repro.engine.lru import LRUDict
from repro.exceptions import DeadlineExceededError
from repro.faults.registry import trip as _fault_trip
from repro.kernels import resolve_kernel
from repro.order.dag import PartialOrderDAG
from repro.skyline.base import SkylineStats

__all__ = [
    "DEFAULT_CACHE_SIZE",
    "BatchQuery",
    "BatchQueryEngine",
    "BatchQueryResult",
    "DagKey",
    "TopologyKey",
    "dag_signature",
    "queries_from_seeds",
    "random_query_preferences",
]

@dataclass(frozen=True)
class BatchQuery:
    """One skyline query of a batch: a name plus its preference DAGs.

    ``dag_overrides`` is read by :func:`~repro.engine.encodings.resolve_query_dags`:
    a name → DAG mapping (an empty one asks for the dataset's own base
    preferences) or one DAG per PO attribute in schema order.
    """

    name: str
    dag_overrides: QuerySpec = field(default_factory=dict)


@dataclass
class BatchQueryResult:
    """Outcome of one query of a batch."""

    name: str
    skyline_ids: list[int]
    topology_key: TopologyKey
    from_cache: bool
    seconds: float
    stats: SkylineStats | None = None

    @property
    def skyline_set(self) -> frozenset[int]:
        return frozenset(self.skyline_ids)


#: Default bound of the per-topology result LRU cache.
DEFAULT_CACHE_SIZE = 256

#: Result-cache miss marker — distinct from any cached value, so a cached
#: empty skyline (or ``None``) is never mistaken for a miss.
_CACHE_MISS = object()


class _ReadWriteLatch:
    """A minimal many-readers / one-writer latch (writer-preferring enough).

    Queries are readers (they share every engine structure), mutations and
    compaction are writers.  Not reentrant across kinds: a holder of the
    write side must not re-acquire either side.
    """

    __slots__ = ("_cond", "_readers", "_writer")

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False

    def acquire_read(self) -> None:
        with self._cond:
            while self._writer:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if not self._readers:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            while self._writer or self._readers:
                self._cond.wait()
            self._writer = True

    def release_write(self) -> None:
        with self._cond:
            self._writer = False
            self._cond.notify_all()


class BatchQueryEngine:
    """Evaluate many skyline queries over one dataset with shared work.

    ``cache_size`` bounds the per-topology result LRU cache.
    ``compact_threshold`` is the number of pending delta mutations that
    triggers automatic compaction (0 disables; falls back to
    ``REPRO_COMPACT_THRESHOLD``).
    """

    def __init__(
        self,
        dataset: "Dataset | DatasetStore | str | os.PathLike",
        *,
        kernel=None,
        cache_size: int = DEFAULT_CACHE_SIZE,
        compact_threshold: int | str | None = None,
    ) -> None:
        # A path or an open DatasetStore selects the persisted plane: the
        # encoded frame and the prefilter survivors come straight out of the
        # packed file — nothing is re-encoded or re-filtered.
        from repro.store.reader import DatasetStore

        self._compact_threshold = resolve_compact_threshold(compact_threshold)
        store: DatasetStore | None = None
        if isinstance(dataset, (str, os.PathLike)):
            store = DatasetStore.open(dataset)
        elif isinstance(dataset, DatasetStore):
            store = dataset
        self._store = store
        self.schema = store.schema if store is not None else dataset.schema
        self.kernel = resolve_kernel(kernel)
        self.cache_size = cache_size
        # Skylines as sorted stable ids, per topology.  A skyline depends on
        # the candidate set only, so a mutation that changed no front (and
        # compaction, which keeps every live id) leaves the cache standing.
        self._result_cache: LRUDict[TopologyKey, list[int]] = LRUDict(cache_size)
        self.queries_evaluated = 0
        self.cache_hits = 0
        self.mutations_applied = 0
        self.compactions = 0
        # Owns the counters and snapshot reads; never held while computing.
        self._state_lock = threading.Lock()
        # Queries read the engine structures concurrently; mutations /
        # compaction swap them under the write side.
        self._latch = _ReadWriteLatch()
        # One lock per topology signature, so only same-topology queries
        # serialize.  Evicting a lock someone still holds is harmless: a
        # latecomer creates a fresh lock and at worst duplicates work the
        # result cache then deduplicates.
        self._query_locks: LRUDict[TopologyKey, threading.Lock] = LRUDict(
            max(cache_size, 64)
        )
        # Cumulative wall clock per pipeline phase (encode the frame, build
        # the shared prefilter and per-group fronts, run the skyline scans);
        # read via :meth:`summary`.
        self._phase_seconds = {"encode": 0.0, "build": 0.0, "query": 0.0}
        # The columnar data plane: the dataset encoded once (NumPy-backed, or
        # tuple-backed without NumPy); queries then read it through row-index
        # views (never a materialized survivor copy).  With a store the frame
        # is the packed one (mapped or loaded, never re-encoded), and its
        # candidates are its packed prefilter pass, its ids those compaction
        # persisted.
        started = time.perf_counter()
        frame = store.frame() if store is not None else EncodedFrame.from_dataset(dataset)
        self._phase_seconds["encode"] += time.perf_counter() - started
        started = time.perf_counter()
        if store is not None:
            self._adopt_base(frame, store.survivors(), store.row_ids(), store.next_id)
        else:
            candidates = prefilter_survivors(self.schema, None, frame, self.kernel)
            self._adopt_base(frame, candidates, None, None)
            self._dataset = dataset
        self._phase_seconds["build"] += time.perf_counter() - started
        # The sidecar log: created by the first mutation (or found at open).
        self._log = None
        # Set when the sidecar log needed quarantine at open (see
        # :meth:`DeltaLog.recover <repro.store.delta.DeltaLog.recover>`).
        self._delta_recovery: dict | None = None
        if store is not None:
            self._replay_delta_log()
        self._build_graph()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def executor(self) -> None:
        """Always ``None``: every query runs in-process on the group path.

        Kept for callers written when an engine could own a sharded worker
        pool (they start it through this attribute when it is set).
        """
        return None

    @property
    def dataset(self) -> Dataset:
        """The engine's base rows as records (decoded from the frame on
        first access when the engine was not built from a dataset)."""
        if self._dataset is None:
            self._dataset = dataset_from_frame(self._delta.base)
        return self._dataset

    @property
    def store(self):
        """The backing :class:`~repro.store.reader.DatasetStore`, if any."""
        return self._store

    def close(self) -> None:
        """Nothing to release; the engine is a context manager for callers
        that scope its lifetime."""

    def __enter__(self) -> "BatchQueryEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Candidate state (open, mutations, compaction)
    # ------------------------------------------------------------------ #
    @property
    def candidate_count(self) -> int:
        """Records that can appear in some query's skyline (after prefilter)."""
        return self._tracker.candidate_count

    @property
    def _candidate_ids(self) -> list[int]:
        """Stable record ids of the candidate rows (compat/introspection)."""
        return [self._delta.stable_id_of_row(row) for row in self._tracker.candidates()]

    def _adopt_base(
        self,
        frame: EncodedFrame,
        candidates: list[int],
        row_ids: Sequence[int] | None,
        next_id: int | None,
    ) -> None:
        """Make ``frame`` the base, at open and after compaction: a fresh
        delta frame over it, with the ``row -> stable id`` mapping
        ``row_ids`` (``None`` = identity) and the id high-water mark
        ``next_id``, and the tracker over its ``candidates`` rows (each
        PO group's TO-Pareto front, ascending)."""
        self._delta = DeltaFrame(frame, base_ids=row_ids, next_id=next_id)
        self._tracker = BaseCandidateTracker(frame, self.kernel, initial_rows=candidates)
        self._dataset = None

    def _build_graph(self) -> None:
        """Index the current candidates' TO-dominance graph (``None`` when
        the candidates exceed its bound, see :func:`~repro.engine.groups.
        build_graph`).  Runs at open and under the write latch, so the graph
        always holds the cross-group pairs of the current candidates."""
        started = time.perf_counter()
        tracker = self._tracker
        self._graph = build_graph(tracker.frame, tracker.candidates(), self.kernel)
        self._phase_seconds["build"] += time.perf_counter() - started

    def _finish_write(
        self, dirty: Mapping[GroupKey, list[int]], mutated: bool
    ) -> None:
        """End a write under the write latch: a changed front drops cached
        skylines and rebuilds the graph, then a mutation may trigger
        compaction (which carries the graph over)."""
        if dirty:
            self._result_cache.clear()
            self._build_graph()
        if mutated and 0 < self._compact_threshold <= self._delta.mutations:
            self._compact_locked()

    # ------------------------------------------------------------------ #
    # Query execution
    # ------------------------------------------------------------------ #
    def _cached_result(
        self, query: BatchQuery, key: TopologyKey, started: float
    ) -> BatchQueryResult | None:
        """A cache-hit result (counting the hit), or ``None`` on a miss."""
        cached = self._result_cache.get(key, _CACHE_MISS)
        if cached is _CACHE_MISS:
            return None
        with self._state_lock:
            self.cache_hits += 1
        return BatchQueryResult(
            name=query.name,
            skyline_ids=list(cached),
            topology_key=key,
            from_cache=True,
            seconds=time.perf_counter() - started,
        )

    def _skyline_rows(self, dags: tuple[PartialOrderDAG, ...]):
        """The skyline under resolved query DAGs as candidate frame rows,
        with its work counters."""
        stats = SkylineStats()
        tracker = self._tracker
        graph = self._graph
        if graph is not None:
            rows = graph_skyline_rows(tracker.frame, graph, dags, self.kernel, stats)
        else:
            rows = skyline_rows(tracker.frame, tracker.fronts, dags, self.kernel, stats)
        return rows, stats

    @staticmethod
    def _check_deadline(deadline: float | None, phase: str) -> None:
        """Raise when the caller's absolute-monotonic deadline has passed.

        Called between query phases so a deadlined query stops burning CPU
        (and releases its topology lock and read latch) at the next phase
        boundary instead of running to completion for nobody.
        """
        if deadline is not None and time.monotonic() >= deadline:
            raise DeadlineExceededError(
                f"query deadline exceeded before the {phase} phase"
            )

    def run_query(
        self, query: BatchQuery, *, deadline: float | None = None
    ) -> BatchQueryResult:
        """Answer one query (possibly from the per-topology cache).

        Thread-safe: concurrent callers over distinct topologies proceed in
        parallel; concurrent callers over the same topology serialize on a
        per-``dag_signature`` lock, where all but the first are then served
        by the result cache the winner filled.  Mutations never interleave
        with an in-flight query (read/write latch).

        ``deadline`` is an absolute :func:`time.monotonic` timestamp; the
        engine checks it before computing and raises
        :class:`~repro.exceptions.DeadlineExceededError` — results are still
        all-or-nothing, a deadlined query never returns a partial skyline.
        """
        started = time.perf_counter()
        dags = resolve_query_dags(self.schema.partial_order_attributes, query.dag_overrides)
        key = topology_key(dags)
        hit = self._cached_result(query, key, started)
        if hit is not None:
            return hit

        query_lock = self._query_locks.setdefault(key, threading.Lock())
        with query_lock:
            # Re-check under the topology lock: while we waited, another
            # thread may have computed and cached this very topology.
            hit = self._cached_result(query, key, started)
            if hit is not None:
                return hit
            self._check_deadline(deadline, "skyline")
            self._latch.acquire_read()
            try:
                computing = time.perf_counter()
                rows, stats = self._skyline_rows(dags)
                query_seconds = time.perf_counter() - computing
                skyline_ids = self._delta.stable_ids(rows)
                with self._state_lock:
                    self.queries_evaluated += 1
                    self._phase_seconds["query"] += query_seconds
                self._result_cache[key] = skyline_ids
            finally:
                self._latch.release_read()
        return BatchQueryResult(
            name=query.name,
            skyline_ids=list(skyline_ids),
            topology_key=key,
            from_cache=False,
            seconds=time.perf_counter() - started,
            stats=stats,
        )

    def run(self, queries: Iterable[BatchQuery]) -> list[BatchQueryResult]:
        """Answer a whole batch in order."""
        return [self.run_query(query) for query in queries]

    # ------------------------------------------------------------------ #
    # Live mutations (the delta plane)
    # ------------------------------------------------------------------ #
    def _ensure_log(self) -> None:
        """Create the sidecar log of a store-backed engine on its first
        mutation, so a read-only open writes no file."""
        if self._store is not None and self._log is None:
            from repro.store.delta import DeltaLog, delta_log_path

            self._log = DeltaLog.ensure(
                delta_log_path(self._store.path), self._store.generation
            )

    def _replay_delta_log(self) -> None:
        """Recover pending mutations from the store's sidecar log (at open).

        Only a log written against this very store generation applies; a
        stale one (compaction landed, crash before the log reset) is left to
        be discarded by the first mutation's :meth:`DeltaLog.ensure
        <repro.store.delta.DeltaLog.ensure>`.  A log corrupted beyond the
        torn-tail rule is quarantined by :meth:`DeltaLog.recover
        <repro.store.delta.DeltaLog.recover>` (never a refusal to open); the
        recovery report surfaces through :meth:`summary`.
        """
        from repro.store.delta import DeltaLog, delta_log_path

        log, report = DeltaLog.recover(
            delta_log_path(self._store.path), self._store.generation
        )
        self._delta_recovery = report
        if log is None:
            return
        self._log = log
        if not log.entries:
            return
        delta = self._delta
        for entry in log.entries:
            if entry[0] == "insert":
                for record_id, to_values, codes in zip(entry[1], entry[2], entry[3]):
                    delta.replay_insert(record_id, to_values, codes)
            else:
                delta.delete_ids(entry[1])
        # One fold of the surviving inserts, then every tombstone: the fronts
        # of the live rows, whatever order the log interleaved them in.
        self._tracker.add_rows(
            delta.frame(), [row for row in delta.live_rows() if row >= len(delta.base)]
        )
        dead = delta.dead_rows()
        if dead:
            self._tracker.remove_rows(dead)
        self.mutations_applied += delta.mutations

    def insert(self, rows: Sequence[Sequence[object]]) -> list[int]:
        """Insert a batch of records; returns their newly allocated stable ids.

        Rows are validated against the schema, encoded into the canonical
        column layout and appended to the delta plane (and, store-backed, to
        the crash-safe sidebar log) — the base is never rewritten.  May
        trigger automatic compaction (``compact_threshold``).
        """
        rows = list(rows)
        if not rows:
            return []
        self._latch.acquire_write()
        try:
            self._ensure_log()
            delta = self._delta
            ids = delta.insert_rows(rows)
            try:
                if self._log is not None:
                    to_rows, code_rows = delta.insert_payload(ids)
                    self._log.append_inserts(ids, to_rows, code_rows)
            finally:
                # The delta holds the rows even when the append raised, and
                # compaction persists the tracker's candidates: keep it in step.
                frame = delta.frame()
                dirty = self._tracker.add_rows(
                    frame, range(len(frame) - len(ids), len(frame))
                )
                self._note_mutation(len(ids))
                self._finish_write(dirty, mutated=True)
            return ids
        finally:
            self._latch.release_write()

    def delete(self, record_ids: Sequence[int]) -> list[int]:
        """Tombstone stable record ids; returns the ids actually deleted.

        Idempotent for already-deleted ids (also across compactions: any id
        below the allocation high-water mark that is not live is a no-op);
        ids never allocated raise :class:`~repro.exceptions.QueryError`.
        Deleting a row that sat on its PO group's Pareto front resurrects the
        siblings it was masking (the candidate tracker recomputes exactly the
        dirty fronts).  May trigger automatic compaction.
        """
        record_ids = [int(record_id) for record_id in record_ids]
        if not record_ids:
            return []
        self._latch.acquire_write()
        try:
            self._ensure_log()
            delta = self._delta
            removed, rows = delta.delete_ids(record_ids)
            try:
                if self._log is not None and removed:
                    self._log.append_deletes(removed)
            finally:
                # As in insert: the tombstones stand even if the append raised.
                dirty = self._tracker.remove_rows(rows) if rows else {}
                if removed:
                    self._note_mutation(len(removed))
                self._finish_write(dirty, mutated=bool(removed))
            return removed
        finally:
            self._latch.release_write()

    def _note_mutation(self, count: int) -> None:
        with self._state_lock:
            self.mutations_applied += count

    def compact(self) -> dict:
        """Fold the delta plane into a fresh base; returns a summary dict.

        Store-backed engines pack the live rows (with their surviving stable
        ids) to a temporary file, atomically ``os.replace`` it over the
        store, reset the sidecar log to the new generation and re-open —
        every intermediate state is CRC-valid and re-openable.  In-memory
        engines simply adopt the live frame as the new base.
        """
        self._latch.acquire_write()
        try:
            return self._compact_locked()
        finally:
            self._latch.release_write()

    def _compact_locked(self) -> dict:
        delta = self._delta
        if not delta.mutations:
            return {"compacted": False, "reason": "no pending mutations"}
        started = time.perf_counter()
        live_frame, row_ids = delta.live_frame_and_ids()
        # The live rows keep their order, so the candidates only renumber:
        # the fronts carry over, and so do the graph's pairs (they index
        # positions in the candidate list).
        candidates = delta.compacted_rows(self._tracker.candidates())
        summary: dict[str, object] = {
            "compacted": True,
            "rows": len(row_ids),
            "folded_mutations": delta.mutations,
        }
        if self._store is not None:
            from repro.store.delta import DeltaLog, delta_log_path
            from repro.store.reader import DatasetStore
            from repro.store.writer import pack_frame

            store = self._store
            generation = store.generation + 1
            tmp_path = store.path + ".compact.tmp"
            pack_frame(
                live_frame,
                tmp_path,
                survivors=candidates,
                row_ids=row_ids,
                generation=generation,
                next_id=delta.next_id,
            )
            # The commit point: readers see either the old store (+ the old
            # log, still at the old generation) or the new one.  A crash
            # after the replace but before the log reset leaves a stale-
            # generation log, which every loader discards.  Fault stages
            # bracket exactly that window for the crash-matrix tests.
            _fault_trip("delta.compact_replace", stage="pre")
            os.replace(tmp_path, store.path)
            _fault_trip("delta.compact_replace", stage="post")
            if self._log is not None:
                self._log.reset(generation)
            else:
                self._log = DeltaLog.ensure(
                    delta_log_path(store.path), generation
                )
            self._store = DatasetStore.open(store.path)
            live_frame = self._store.frame()
            summary["generation"] = generation
            summary["path"] = self._store.path
        graph = self._graph
        self._adopt_base(live_frame, candidates, row_ids, delta.next_id)
        if graph is not None:
            self._graph = CandidateGraph(self._tracker.candidates(), graph.pairs)
        with self._state_lock:
            self.compactions += 1
        summary["seconds"] = time.perf_counter() - started
        return summary

    def summary(self) -> dict[str, object]:
        """A consistent snapshot of counters and cache sizes.

        The counters are read under the state lock, so a summary taken while
        queries are in flight never shows e.g. a hit count from after a
        query the evaluation count has not seen yet.
        """
        with self._state_lock:
            queries_evaluated = self.queries_evaluated
            cache_hits = self.cache_hits
            mutations_applied = self.mutations_applied
            compactions = self.compactions
            phase_seconds = dict(self._phase_seconds)
        delta = self._delta
        graph = self._graph
        return {
            "dataset_size": len(delta.base),
            "candidates_after_prefilter": self.candidate_count,
            # Which path answers queries over the candidates, and the
            # graph's size when it is the graph.
            "query_path": (
                {"path": "levels"}
                if graph is None
                else {
                    "path": "graph",
                    "pairs": len(graph.pairs),
                    "bytes": graph.pairs.nbytes,
                }
            ),
            "store": (
                {
                    "path": self._store.path,
                    "format_version": self._store.format_version,
                    "generation": self._store.generation,
                    "mmap": self._store.uses_mmap,
                }
                if self._store is not None
                else None
            ),
            "phase_seconds": phase_seconds,
            "queries_evaluated": queries_evaluated,
            "cache_hits": cache_hits,
            # Live LRU entries — a lower bound on distinct topologies seen
            # once evictions start (cache_evictions tells the rest).
            "cached_topologies": len(self._result_cache),
            "cache_capacity": self.cache_size,
            "cache_evictions": self._result_cache.evictions,
            "kernel": self.kernel.name,
            "compact_threshold": self._compact_threshold,
            "mutations_applied": mutations_applied,
            "compactions": compactions,
            "delta_log_recovery": self._delta_recovery,
            "delta": (
                None
                if not delta.mutations
                else {
                    "inserts": delta.num_inserts,
                    "live_inserts": delta.live_insert_count,
                    "base_deletes": delta.num_base_deletes,
                    "pending_mutations": delta.mutations,
                    "live_rows": delta.num_live,
                    "next_id": delta.next_id,
                }
            ),
        }


def random_query_preferences(
    schema, query_seed: int, *, max_probability: float = 0.5
) -> dict[str, PartialOrderDAG]:
    """A random dynamic preference specification over the schema's PO domains.

    Each PO attribute keeps its value domain but re-draws preference edges
    over a random ranking, with a probability calibrated to the base DAG's
    density.  The dynamic experiments (Figures 12-14) draw their queries
    here too.
    """
    import random

    overrides: dict[str, PartialOrderDAG] = {}
    for attr_index, attribute in enumerate(schema.partial_order_attributes):
        dag = attribute.dag
        rng = random.Random(query_seed * 1009 + attr_index)
        values = list(dag.values)
        rng.shuffle(values)
        pairs = len(values) * (len(values) - 1) / 2 or 1.0
        probability = min(max_probability, dag.num_edges / pairs * 2.0)
        edges = [
            (values[i], values[j])
            for i in range(len(values))
            for j in range(i + 1, len(values))
            if rng.random() < probability
        ]
        overrides[attribute.name] = PartialOrderDAG(dag.values, edges)
    return overrides


def queries_from_seeds(schema, seeds: Sequence[int]) -> list[BatchQuery]:
    """One random :class:`BatchQuery` per seed (named ``q<seed>``)."""
    return [
        BatchQuery(name=f"q{seed}", dag_overrides=random_query_preferences(schema, seed))
        for seed in seeds
    ]
