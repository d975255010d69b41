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
  topology of their preference DAGs (values plus transitive-closure edges,
  per PO attribute).  Two queries that induce the same preference relation —
  even through differently drawn Hasse diagrams — share one skyline
  computation, and the per-DAG interval encodings are cached the same way.

Per query, the engine runs sTSS (or SFS for TO-only schemas) on the reduced
rows through the configured dominance kernel and maps the resulting ids back
to stable record ids.  Both caches are bounded LRU maps (``cache_size``) so
a long-running service cannot grow memory without limit, and with
``workers``/``num_shards`` the per-query work is delegated to a
:class:`~repro.parallel.executor.ShardedExecutor` over the reduced rows.

**Live mutations** ride on the columnar delta plane
(:mod:`repro.delta`): :meth:`BatchQueryEngine.insert` encodes new rows into
an append-only :class:`~repro.delta.frame.DeltaFrame` over the immutable
base and :meth:`BatchQueryEngine.delete` tombstones stable record ids.
Queries then answer ``SKY(base ∪ delta)`` by cross-examining the (cached)
base skyline against a per-query delta skyline — two batched kernel calls,
bitwise-identical to a from-scratch rebuild over the live rows.  Deleting a
base row may resurrect prefilter-dropped group siblings; a
:class:`~repro.delta.candidates.BaseCandidateTracker` recomputes exactly the
dirty groups' Pareto fronts.  Store-backed engines persist every mutation in
a crash-safe sidecar :class:`~repro.store.delta.DeltaLog` and fold the delta
into a fresh packed base once ``compact_threshold`` mutations accumulate
(atomic ``os.replace``; ids survive via the store's ``row_ids`` section).

The engine is a concurrency-safe façade: :meth:`BatchQueryEngine.run_query`
may be called from many threads at once.  Queries synchronize on a
per-``dag_signature`` lock — concurrent queries over *distinct* topologies
interleave freely (their shard-local phases overlap), while concurrent
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
    from repro.parallel.executor import ShardedQueryResult
    from repro.store.reader import DatasetStore

from repro.config import resolve_compact_threshold, resolve_workers
from repro.core.mapping import TSSMapping
from repro.core.stss import stss_skyline
from repro.data.columns import EncodedFrame
from repro.data.dataset import Dataset
from repro.delta.candidates import BaseCandidateTracker
from repro.delta.frame import DeltaFrame, dataset_from_frame
from repro.delta.merge import cross_examine, tables_blocks
from repro.engine.prefilter import prefilter_survivors
from repro.engine.encodings import (
    DagKey,
    EncodingCache,
    dag_signature,
    validate_override_domains,
)
from repro.engine.lru import LRUDict
from repro.exceptions import DeadlineExceededError, QueryError
from repro.faults.registry import trip as _fault_trip
from repro.kernels import resolve_kernel
from repro.kernels.tables import RecordTables
from repro.order.dag import PartialOrderDAG
from repro.order.encoding import DomainEncoding
from repro.skyline.base import SkylineStats
from repro.skyline.sfs import sfs_skyline

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

#: Signature of a whole query: one DagKey per PO attribute, in schema order.
TopologyKey = tuple[DagKey, ...]


@dataclass(frozen=True)
class BatchQuery:
    """One skyline query of a batch: a name plus per-attribute DAG overrides.

    An empty ``dag_overrides`` mapping asks for the skyline under the
    dataset's own (base) preferences.
    """

    name: str
    dag_overrides: Mapping[str, PartialOrderDAG] = field(default_factory=dict)


@dataclass
class BatchQueryResult:
    """Outcome of one query of a batch.

    ``sharded`` carries the per-phase accounting (and local-phase wall-clock
    window) of the underlying sharded run, when the engine has an executor
    and the result was computed rather than served from the cache.
    """

    name: str
    skyline_ids: list[int]
    topology_key: TopologyKey
    from_cache: bool
    seconds: float
    stats: SkylineStats | None = None
    sharded: "ShardedQueryResult | None" = None

    @property
    def skyline_set(self) -> frozenset[int]:
        return frozenset(self.skyline_ids)


#: Default bound of the per-topology result / encoding LRU caches.
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

    ``cache_size`` bounds both LRU caches (results and per-DAG encodings).
    ``workers``/``num_shards``/``partitioner`` optionally route each evaluated
    query through a sharded executor built over the reduced rows
    (``workers=0`` with ``num_shards>1`` shards in-process; ``workers>=1``
    uses a persistent worker pool — close the engine, e.g. as a context
    manager, to release it).  ``compact_threshold`` is the number of pending
    delta mutations that triggers automatic compaction (0 disables; falls
    back to ``REPRO_COMPACT_THRESHOLD``).
    """

    def __init__(
        self,
        dataset: "Dataset | DatasetStore | str | os.PathLike",
        *,
        kernel=None,
        max_entries: int = 32,
        prefilter: bool = True,
        cache_size: int = DEFAULT_CACHE_SIZE,
        workers: int | str | None = None,
        num_shards: int | None = None,
        partitioner: str = "round-robin",
        compact_threshold: int | str | None = None,
    ) -> None:
        # A path or an open DatasetStore selects the persisted plane: the
        # encoded frame, the prefilter survivors and (for base-preference
        # queries) the mapping/tree come straight out of the packed file —
        # nothing is re-encoded, re-filtered or re-bulk-loaded.
        from repro.store.reader import DatasetStore

        self._compact_threshold = resolve_compact_threshold(compact_threshold)
        store: DatasetStore | None = None
        if isinstance(dataset, (str, os.PathLike)):
            store = DatasetStore.open(dataset)
        elif isinstance(dataset, DatasetStore):
            store = dataset
        self._store = store
        if store is not None:
            dataset = None
            self.schema = store.schema
            self._num_rows = store.num_rows
        else:
            self.schema = dataset.schema
            self._num_rows = len(dataset)
        self._dataset = dataset
        self.kernel = resolve_kernel(kernel)
        # Spatial index backend of the per-query data R-trees: flat with
        # NumPy, pointer without (reported by summary()).
        from repro.index.registry import resolve_index

        self.index = resolve_index()
        self.max_entries = max_entries
        self.cache_size = cache_size
        self._prefilter = bool(prefilter)
        self._result_cache: LRUDict[TopologyKey, list[int]] = LRUDict(cache_size)
        # Base-side skylines as *frame rows*, per topology.  Survives inserts
        # (the base did not change) and is dropped only when the live base
        # row set does: base deletes and compaction.
        self._base_cache: LRUDict[TopologyKey, list[int]] = LRUDict(cache_size)
        self._encoding_cache = EncodingCache(cache_size)
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
        # per-query mappings + the shared prefilter, bulk-load the per-query
        # data R-trees, run the skyline scans, merge across shards); read via
        # :meth:`summary`.  Sharded runs fold tree construction into their
        # workers' local phase, so ``index_build`` tracks the in-process path.
        self._phase_seconds = {
            "encode": 0.0,
            "build": 0.0,
            "index_build": 0.0,
            "query": 0.0,
            "merge": 0.0,
        }
        # The columnar data plane: the dataset encoded once (NumPy-backed, or
        # tuple-backed without NumPy); queries then read it through row-index
        # views (never a materialized survivor copy).  With a store the frame
        # is the packed one (mapped or loaded, never re-encoded).
        started = time.perf_counter()
        self._frame: EncodedFrame = (
            store.frame() if store is not None else EncodedFrame.from_dataset(dataset)
        )
        self._phase_seconds["encode"] += time.perf_counter() - started
        # Stable ``base row -> record id`` mapping (None = identity) and the
        # id allocation high-water mark (None = one past the largest base
        # id).  A store packed by compaction carries both; fresh data starts
        # identity.
        self._row_ids = store.row_ids() if store is not None else None
        self._next_id = store.next_id if store is not None else None
        # Mirrors the kernel registry: an explicit ``workers`` wins, ``None``
        # consults REPRO_WORKERS, and 0 means single-process evaluation.
        self._workers_resolved = resolve_workers(workers)
        self._num_shards_config = num_shards
        self._partitioner = partitioner
        self._sharded = self._workers_resolved >= 1 or (
            num_shards is not None and num_shards > 1
        )
        started = time.perf_counter()
        if store is not None:
            # The packed prefilter pass (validated at pack time against both
            # backends); skipping it costs nothing since the survivor list
            # is one mmap'd section.
            self._candidate_rows = (
                store.survivors() if prefilter else list(range(self._num_rows))
            )
        else:
            self._candidate_rows = (
                self._prefilter_survivors()
                if prefilter
                else list(range(self._num_rows))
            )
        self._phase_seconds["build"] += time.perf_counter() - started
        # Base-preference queries may adopt the store's packed mapping/tree;
        # their point record ids index the *packed* survivor order, which is
        # this engine's reduced order only while the prefilter is on and no
        # base row has been deleted.
        self._store_base_usable = (
            store is not None and prefilter and store.has_base_mapping
        )
        self._base_artifacts = None
        # The delta plane: built lazily on the first mutation (or delta-log
        # replay); ``None`` means the base alone answers every query.
        self._delta: DeltaFrame | None = None
        self._tracker: BaseCandidateTracker | None = None
        self._log = None
        # Set when the sidecar log needed quarantine at open (see
        # :meth:`DeltaLog.recover <repro.store.delta.DeltaLog.recover>`).
        self._delta_recovery: dict | None = None
        self._executor = None
        if store is not None:
            self._replay_delta_log()
        self._build_reduced_state()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def executor(self):
        """The sharded executor evaluating this engine's queries, if any."""
        return self._executor

    @property
    def dataset(self) -> Dataset:
        """The engine's base rows as records (decoded from the frame on
        first access when the engine was not built from a dataset)."""
        if self._dataset is None:
            self._dataset = dataset_from_frame(self._frame)
        return self._dataset

    @property
    def store(self):
        """The backing :class:`~repro.store.reader.DatasetStore`, if any."""
        return self._store

    def close(self) -> None:
        """Release the sharded executor's worker pool, if one is running."""
        if self._executor is not None:
            self._executor.close()

    def __enter__(self) -> "BatchQueryEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Shared dominance work
    # ------------------------------------------------------------------ #
    def _prefilter_survivors(self) -> list[int]:
        """Keep only each PO-combination group's TO-Pareto front.

        Query-independent: within a group the PO attributes tie under every
        preference DAG, so a record strictly TO-dominated by a group sibling
        is dominated under every query.  Delegates to
        :func:`repro.engine.prefilter.prefilter_survivors` — the very same
        code the store writer runs at pack time, so packed survivor lists
        can never drift from a fresh engine's.
        """
        return prefilter_survivors(
            self.schema, None, self._frame, self.kernel
        )

    @property
    def candidate_count(self) -> int:
        """Records that can appear in some query's skyline (after prefilter)."""
        return len(self._candidate_rows)

    @property
    def _candidate_ids(self) -> list[int]:
        """Stable record ids of the candidate rows (compat/introspection)."""
        return [self._stable_id_of_row(row) for row in self._candidate_rows]

    def _stable_id_of_row(self, row: int) -> int:
        return row if self._row_ids is None else self._row_ids[row]

    def _stored_base_artifacts(self, query: BatchQuery, key: TopologyKey):
        """The store's packed base mapping (+ tree, when compatible), cached.

        The packed flat tree is adopted when the store maps its sections
        (NumPy imports, so the engine queries through the flat backend) and
        the fanout matches; otherwise the tree is rebuilt over the packed
        mapping's points (still no re-mapping).  Guarded by
        :attr:`_store_base_usable` — the packed record ids index the packed
        survivor order.
        """
        with self._state_lock:
            cached = self._base_artifacts
        if cached is not None:
            return cached
        store = self._store
        mapping = store.base_mapping(encodings=self._encodings_for(query, key))
        if (
            store.uses_mmap
            and store.has_base_index
            and self.max_entries == store.base_max_entries
        ):
            tree = store.base_tree()
        else:
            tree = mapping.build_rtree(max_entries=self.max_entries)
        with self._state_lock:
            if self._base_artifacts is None:
                self._base_artifacts = (mapping, tree)
            return self._base_artifacts

    # ------------------------------------------------------------------ #
    # Reduced state (initial build + rebuilds after base-live changes)
    # ------------------------------------------------------------------ #
    def _build_reduced_state(self) -> None:
        """Derive every candidate-dependent structure from ``_candidate_rows``.

        Called at construction and again whenever the live base row set
        changes (base delete that dirtied a Pareto front, compaction).  The
        in-process path keeps only a row-index view (:attr:`_reduced_rows`);
        a materialized row-subset frame is built solely for the sharded
        executor, which partitions rows across shards/processes and
        therefore needs its own copy anyway.  Store-backed executors ship
        ``(path, rows)`` specs to their workers instead of frame slices.
        """
        full = len(self._candidate_rows) == self._num_rows
        self._reduced_rows = None if full else list(self._candidate_rows)
        old = self._executor
        self._executor = None
        if old is not None:
            old.close()
        if self._sharded:
            from repro.parallel.executor import ShardedExecutor

            started = time.perf_counter()
            frame = self._frame if full else self._frame.take(self._candidate_rows)
            self._phase_seconds["encode"] += time.perf_counter() - started
            started = time.perf_counter()
            self._executor = ShardedExecutor(
                workers=self._workers_resolved,
                num_shards=self._num_shards_config,
                partitioner=self._partitioner,
                kernel=self.kernel,
                max_entries=self.max_entries,
                encoding_cache_size=self.cache_size,
                frame=frame,
                store=self._store,
                store_rows=self._candidate_rows if self._store is not None else None,
            )
            self._phase_seconds["build"] += time.perf_counter() - started

    # ------------------------------------------------------------------ #
    # Query execution
    # ------------------------------------------------------------------ #
    def topology_key(self, query: BatchQuery) -> TopologyKey:
        po_names = {a.name for a in self.schema.partial_order_attributes}
        unknown = set(query.dag_overrides) - po_names
        if unknown:
            raise QueryError(
                f"query {query.name!r} overrides non-PO attributes: {sorted(unknown)}"
            )
        keys: list[DagKey] = []
        for attribute in self.schema.partial_order_attributes:
            dag = query.dag_overrides.get(attribute.name, attribute.dag)
            keys.append(dag_signature(dag))
        return tuple(keys)

    def _encodings_for(
        self, query: BatchQuery, key: TopologyKey
    ) -> list[DomainEncoding]:
        return self._encoding_cache.encodings_for(
            self.schema.partial_order_attributes, query.dag_overrides, keys=key
        )

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

    def _effective_schema(self, query: BatchQuery):
        if query.dag_overrides:
            return self.schema.replace_partial_order(dict(query.dag_overrides))
        return self.schema

    def _base_skyline_rows(
        self,
        query: BatchQuery,
        key: TopologyKey,
        *,
        deadline: float | None = None,
    ):
        """The base-side skyline as frame rows, via the per-topology cache.

        Returns ``(rows, stats, sharded_result, timers)`` where ``timers`` is
        the ``(build, index_build, query, merge)`` seconds of an actual
        computation (all zero on a base-cache hit).
        """
        cached = self._base_cache.get(key, _CACHE_MISS)
        if cached is not _CACHE_MISS:
            return list(cached), None, None, (0.0, 0.0, 0.0, 0.0)
        stats = None
        sharded = None
        build_seconds = index_build_seconds = query_seconds = merge_seconds = 0.0
        if self._executor is not None:
            sharded = self._executor.query(
                query.dag_overrides, name=query.name, deadline=deadline
            )
            reduced_ids = sharded.skyline_ids
            query_seconds = sharded.seconds_local
            merge_seconds = sharded.seconds_merge
        else:
            if query.dag_overrides:
                # Domain coverage is checked up front (the shared cheap
                # equivalent of full row validation, same as the sharded
                # path) so the schema swap can skip re-walking every row on
                # each topology miss.
                validate_override_domains(
                    self.schema.partial_order_attributes, query.dag_overrides
                )
            if self.schema.num_partial_order:
                phase_started = time.perf_counter()
                tree = None
                if not query.dag_overrides and self._store_base_usable:
                    # Base-preference query over a store: adopt the packed
                    # mapping (and tree, when compatible) instead of
                    # re-mapping / re-bulk-loading.
                    mapping, tree = self._stored_base_artifacts(query, key)
                else:
                    # Map a row view of the shared frame under the effective
                    # schema — no survivor copy, no per-record re-walk.
                    mapping = TSSMapping(
                        None,
                        self._encodings_for(query, key),
                        schema=self._effective_schema(query),
                        frame=self._frame,
                        rows=self._reduced_rows,
                    )
                index_started = time.perf_counter()
                build_seconds = index_started - phase_started
                if tree is None:
                    tree = mapping.build_rtree(max_entries=self.max_entries)
                query_started = time.perf_counter()
                index_build_seconds = query_started - index_started
                result = stss_skyline(mapping=mapping, tree=tree, kernel=self.kernel)
                query_seconds = time.perf_counter() - query_started
            else:
                query_started = time.perf_counter()
                result = sfs_skyline(
                    None, frame=self._frame, rows=self._reduced_rows, kernel=self.kernel
                )
                query_seconds = time.perf_counter() - query_started
            reduced_ids = result.skyline_ids
            stats = result.stats
        rows = [self._candidate_rows[reduced_id] for reduced_id in reduced_ids]
        self._base_cache[key] = rows
        timers = (build_seconds, index_build_seconds, query_seconds, merge_seconds)
        return rows, stats, sharded, timers

    def _merged_skyline_ids(
        self, query: BatchQuery, key: TopologyKey, base_rows: Sequence[int]
    ) -> list[int]:
        """``SKY(base ∪ delta)`` as sorted stable ids.

        The delta side runs the same per-query pipeline over a row view of
        the insert frame (live inserts only); the two partial skylines are
        then cross-examined with one batched ground-truth dominance call per
        direction — see :mod:`repro.delta.merge` for why the union of the
        mutual survivors is exactly the from-scratch skyline.
        """
        delta = self._delta
        live_positions = delta.live_insert_positions()
        insert_frame = delta.insert_frame()
        if self.schema.num_partial_order:
            mapping = TSSMapping(
                None,
                self._encodings_for(query, key),
                schema=self._effective_schema(query),
                frame=insert_frame,
                rows=live_positions,
            )
            tree = mapping.build_rtree(max_entries=self.max_entries)
            result = stss_skyline(mapping=mapping, tree=tree, kernel=self.kernel)
        else:
            result = sfs_skyline(
                None, frame=insert_frame, rows=live_positions, kernel=self.kernel
            )
        delta_rows = [live_positions[i] for i in result.skyline_ids]
        tables = RecordTables.from_schema(self._effective_schema(query))
        keep_base, keep_delta = cross_examine(
            self.kernel,
            tables,
            tables_blocks(self._frame, list(base_rows), tables),
            tables_blocks(insert_frame, delta_rows, tables),
        )
        ids = [
            self._stable_id_of_row(row)
            for row, keep in zip(base_rows, keep_base)
            if keep
        ]
        ids.extend(
            delta.insert_ids_at(
                [row for row, keep in zip(delta_rows, keep_delta) if keep]
            )
        )
        return sorted(ids)

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
        engine re-checks it between phases (base skyline, delta merge) and
        raises :class:`~repro.exceptions.DeadlineExceededError` — results are
        still all-or-nothing, a deadlined query never returns a partial
        skyline.
        """
        started = time.perf_counter()
        key = self.topology_key(query)
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
            self._check_deadline(deadline, "base-skyline")
            self._latch.acquire_read()
            try:
                base_rows, stats, sharded, timers = self._base_skyline_rows(
                    query, key, deadline=deadline
                )
                build_seconds, index_build_seconds, query_seconds, merge_seconds = (
                    timers
                )
                self._check_deadline(deadline, "delta-merge")
                delta = self._delta
                if delta is not None and delta.live_insert_count:
                    merge_started = time.perf_counter()
                    skyline_ids = self._merged_skyline_ids(query, key, base_rows)
                    merge_seconds += time.perf_counter() - merge_started
                else:
                    skyline_ids = sorted(
                        self._stable_id_of_row(row) for row in base_rows
                    )
                with self._state_lock:
                    self.queries_evaluated += 1
                    self._phase_seconds["build"] += build_seconds
                    self._phase_seconds["index_build"] += index_build_seconds
                    self._phase_seconds["query"] += query_seconds
                    self._phase_seconds["merge"] += merge_seconds
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
            sharded=sharded,
        )

    def run(self, queries: Iterable[BatchQuery]) -> list[BatchQueryResult]:
        """Answer a whole batch in order."""
        return [self.run_query(query) for query in queries]

    # ------------------------------------------------------------------ #
    # Live mutations (the delta plane)
    # ------------------------------------------------------------------ #
    def _ensure_delta(self) -> DeltaFrame:
        if self._delta is None:
            self._delta = DeltaFrame(
                self._frame, base_ids=self._row_ids, next_id=self._next_id
            )
            if self._store is not None and self._log is None:
                from repro.store.delta import DeltaLog, delta_log_path

                self._log = DeltaLog.ensure(
                    delta_log_path(self._store.path), self._store.generation
                )
        return self._delta

    def _ensure_tracker(self) -> BaseCandidateTracker:
        if self._tracker is None:
            self._tracker = BaseCandidateTracker(
                self._frame,
                self.kernel,
                prefilter=self._prefilter,
                initial_rows=self._candidate_rows,
            )
        return self._tracker

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
        delta = self._ensure_delta()
        for entry in log.entries:
            if entry[0] == "insert":
                for record_id, to_values, codes in zip(entry[1], entry[2], entry[3]):
                    delta.replay_insert(record_id, to_values, codes)
            else:
                _, base_rows = delta.delete_ids(entry[1])
                if base_rows:
                    self._ensure_tracker().remove_rows(base_rows)
        if self._tracker is not None:
            candidates = self._tracker.candidates()
            if candidates != self._candidate_rows:
                self._candidate_rows = candidates
                self._store_base_usable = False
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
            delta = self._ensure_delta()
            ids = delta.insert_rows(rows)
            if self._log is not None:
                to_rows, code_rows = delta.insert_payload(ids)
                self._log.append_inserts(ids, to_rows, code_rows)
            self._note_mutation(len(ids))
            self._maybe_compact()
            return ids
        finally:
            self._latch.release_write()

    def delete(self, record_ids: Sequence[int]) -> list[int]:
        """Tombstone stable record ids; returns the ids actually deleted.

        Idempotent for already-deleted ids (also across compactions: any id
        below the allocation high-water mark that is not live is a no-op);
        ids never allocated raise :class:`~repro.exceptions.QueryError`.
        Deleting a base row that sat on its PO group's Pareto front
        resurrects the prefilter-dropped siblings it was masking (the
        candidate tracker recomputes exactly the dirty fronts).  May trigger
        automatic compaction.
        """
        record_ids = [int(record_id) for record_id in record_ids]
        if not record_ids:
            return []
        self._latch.acquire_write()
        try:
            delta = self._ensure_delta()
            removed, base_rows = delta.delete_ids(record_ids)
            if self._log is not None and removed:
                self._log.append_deletes(removed)
            if base_rows:
                self._apply_base_deletes(base_rows)
            if removed:
                self._note_mutation(len(removed))
                self._maybe_compact()
            return removed
        finally:
            self._latch.release_write()

    def _note_mutation(self, count: int) -> None:
        with self._state_lock:
            self.mutations_applied += count
        # Every mutation invalidates merged results; the base-side cache
        # survives unless the live base row set changed.
        self._result_cache.clear()

    def _apply_base_deletes(self, base_rows: Sequence[int]) -> None:
        tracker = self._ensure_tracker()
        if not tracker.remove_rows(base_rows):
            # The deleted rows were prefilter-dropped (dominated) — the
            # candidate set, every base skyline and the packed artifacts
            # still stand.
            return
        self._candidate_rows = tracker.candidates()
        self._base_cache.clear()
        self._base_artifacts = None
        self._store_base_usable = False
        self._build_reduced_state()

    def _maybe_compact(self) -> None:
        if (
            self._compact_threshold > 0
            and self._delta is not None
            and self._delta.mutations >= self._compact_threshold
        ):
            self._compact_locked()

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
        if delta is None or not delta.mutations:
            return {"compacted": False, "reason": "no pending mutations"}
        live_frame, row_ids = delta.live_frame_and_ids()
        summary: dict[str, object] = {
            "compacted": True,
            "rows": len(row_ids),
            "folded_mutations": delta.mutations,
        }
        started = time.perf_counter()
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
                kernel=self.kernel,
                max_entries=self.max_entries,
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
            reopened = DatasetStore.open(store.path)
            self._store = reopened
            self._num_rows = reopened.num_rows
            self._row_ids = reopened.row_ids()
            self._next_id = reopened.next_id
            self._frame = reopened.frame()
            self._candidate_rows = (
                reopened.survivors()
                if self._prefilter
                else list(range(self._num_rows))
            )
            self._store_base_usable = self._prefilter and reopened.has_base_mapping
            summary["generation"] = generation
            summary["path"] = reopened.path
        else:
            identity = row_ids == list(range(len(row_ids)))
            self._row_ids = None if identity else row_ids
            self._next_id = delta.next_id
            self._num_rows = len(row_ids)
            self._frame = live_frame
            self._candidate_rows = (
                self._prefilter_survivors()
                if self._prefilter
                else list(range(self._num_rows))
            )
            self._store_base_usable = False
        self._dataset = None
        self._delta = None
        self._tracker = None
        self._base_artifacts = None
        self._base_cache.clear()
        self._result_cache.clear()
        with self._state_lock:
            self.compactions += 1
        self._build_reduced_state()
        summary["seconds"] = time.perf_counter() - started
        return summary

    def summary(self) -> dict[str, object]:
        """A consistent snapshot of counters, cache sizes and shard state.

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
        summary: dict[str, object] = {
            "dataset_size": self._num_rows,
            "candidates_after_prefilter": self.candidate_count,
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
            "encoding_cache_entries": len(self._encoding_cache),
            "encoding_cache_evictions": self._encoding_cache.evictions,
            "kernel": self.kernel.name,
            "index": self.index,
            "workers": self._executor.workers if self._executor is not None else 0,
            "compact_threshold": self._compact_threshold,
            "mutations_applied": mutations_applied,
            "compactions": compactions,
            "delta_log_recovery": self._delta_recovery,
            "delta": (
                None
                if delta is None
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
        if self._executor is not None:
            summary["sharding"] = self._executor.summary()
        return summary


def random_query_preferences(
    schema, query_seed: int, *, max_probability: float = 0.5
) -> dict[str, PartialOrderDAG]:
    """A random dynamic preference specification over the schema's PO domains.

    Mirrors the benchmark harness's query generator: each PO attribute keeps
    its value domain but re-draws preference edges over a random ranking,
    with a probability calibrated to the base DAG's density.
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
