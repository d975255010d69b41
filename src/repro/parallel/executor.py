"""The sharded executor: local skylines per shard, cross-shard merge.

The classic divide-and-conquer skyline identity: for any partition of the
data into shards, the global skyline is exactly the set of local skyline
records not dominated by a local skyline record of another shard.  (A record
dominated by anything is dominated by a skyline record of the dominator's
shard; a local skyline record not dominated across shards is dominated by
nothing.)  :class:`ShardedExecutor` exploits it in two phases, exposed
separately as :meth:`~ShardedExecutor.local_phase` and
:meth:`~ShardedExecutor.merge_phase` so callers (the concurrent query
service) can overlap the independent local phases of several queries and
synchronize only around the merge:

* **Local phase** — each shard's skyline is computed with sTSS (or SFS for
  TO-only schemas).  With ``workers >= 1`` the phase runs on a persistent
  :mod:`multiprocessing` pool whose workers hold the shards in process-local
  state: shards are shipped once at pool startup, and per query only the
  preference-DAG overrides travel.  Each worker keeps a per-topology interval
  encoding cache, mirroring the batch engine's.
* **Merge phase** — a sort-merge of the local skylines over the monotone SFS
  sort key, run columnar over the executor's frame.  Dominance implies a
  smaller (under float rounding: never larger) key, so a record can only be
  killed by stream predecessors or key-ties, and (with transitivity) it
  suffices to test each record against the *surviving* prefix plus its own
  key-tie run.  The stream is consumed in chunks, each resolved with one
  batched window test (:meth:`~repro.kernels.base.RecordStore.
  block_dominated_columns`) plus one intra-chunk block test — total work is
  proportional to (stream length) x (global skyline), instead of the
  (sum of local skylines)^2 of a shard-pair sweep.

Every shard is a row slice of one :class:`~repro.data.columns.EncodedFrame`
(NumPy-backed when NumPy imports, tuple-backed otherwise): it is what travels
to the workers and what the merge reads.

``workers = 0`` runs both phases in-process — same partition and merge, no
pool — which is the deterministic baseline the property tests compare
against, and what a one-core host should use.

Executors are safe to share between *querying* threads: phases run
lock-free over immutable shard data, and the small shared caches/counters
are guarded internally.  :meth:`~ShardedExecutor.close` is not safe to race
against in-flight queries (terminating the pool mid-map would strand them)
— callers must drain queries first, as the query service does with its
in-flight counter before engine shutdown.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.config import resolve_workers
from repro.core.stss import stss_skyline
from repro.data.columns import EncodedFrame, ordered_rows
from repro.data.dataset import Dataset
from repro.data.schema import Schema
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
from repro.parallel.partition import Shard, partition_frame
from repro.skyline.sfs import depth_columns, sfs_skyline

#: Stream records resolved per batched window test of the sort-merge.
MERGE_CHUNK = 256


# ---------------------------------------------------------------------- #
# Worker-side machinery
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class _StoreShardSpec:
    """What ships to a pool worker for one store-backed shard.

    Instead of pickling an :class:`~repro.data.columns.EncodedFrame` slice,
    the worker receives the store *path* plus the shard's global row
    positions, reopens the file itself (checksums already verified by the
    parent) and cuts its slice from the mapped frame — so every worker
    shares the parent's bytes through the OS page cache rather than holding
    a private pickled copy.
    """

    path: str
    rows: tuple[int, ...]


class _WorkerState:
    """Process-local state of one pool worker (or of the inline executor).

    Holds only the shards *owned* by this worker (shipped once at pool
    startup, keyed by shard index) plus a per-DAG interval encoding cache,
    so repeated queries against the same topology re-derive nothing.  Each
    shard arrives as an :class:`~repro.data.columns.EncodedFrame` of column
    blocks (or a store spec it slices one from) — no ``Record`` objects ever
    cross the process boundary.
    """

    def __init__(
        self,
        schema: Schema,
        shard_data: dict[int, "EncodedFrame | _StoreShardSpec"],
        kernel_name: str | None,
        max_entries: int,
        encoding_cache_size: int,
    ) -> None:
        self.schema = schema
        if any(isinstance(data, _StoreShardSpec) for data in shard_data.values()):
            from repro.store.reader import DatasetStore

            stores: dict[str, DatasetStore] = {}
            resolved: dict[int, "EncodedFrame | _StoreShardSpec"] = {}
            for index, data in shard_data.items():
                if isinstance(data, _StoreShardSpec):
                    store = stores.get(data.path)
                    if store is None:
                        store = stores[data.path] = DatasetStore.open(
                            data.path, verify=False
                        )
                    resolved[index] = store.frame().take(list(data.rows))
                else:
                    resolved[index] = data
            shard_data = resolved
        self.shard_data = shard_data
        self.kernel = resolve_kernel(kernel_name)
        self.max_entries = max_entries
        self._encoding_cache = EncodingCache(encoding_cache_size)

    def local_skyline(
        self, shard_index: int, overrides: Mapping[str, PartialOrderDAG]
    ) -> list[int]:
        """Local skyline ids (shard-local positions) of one shard."""
        frame = self.shard_data[shard_index]
        if not len(frame):
            return []
        if self.schema.num_partial_order:
            schema = (
                self.schema.replace_partial_order(dict(overrides))
                if overrides
                else self.schema
            )
            result = stss_skyline(
                None,
                encodings=self._encoding_cache.encodings_for(
                    self.schema.partial_order_attributes, overrides
                ),
                schema=schema,
                frame=frame,
                max_entries=self.max_entries,
                kernel=self.kernel,
            )
        else:
            result = sfs_skyline(None, frame=frame, kernel=self.kernel)
        return result.skyline_ids


_WORKER_STATE: _WorkerState | None = None


def _init_worker(
    schema: Schema,
    shard_data: dict[int, "EncodedFrame | _StoreShardSpec"],
    kernel_name: str | None,
    max_entries: int,
    encoding_cache_size: int,
) -> None:
    global _WORKER_STATE
    _WORKER_STATE = _WorkerState(
        schema, shard_data, kernel_name, max_entries, encoding_cache_size
    )


def _worker_local_skyline(
    task: tuple[int, dict[str, PartialOrderDAG]],
) -> tuple[int, list[int]]:
    shard_index, overrides = task
    # Inside the pool worker: ``raise`` surfaces through apply_async as the
    # remote exception, ``exit`` kills this very process — both feed the
    # parent's self-healing ladder (respawn once, then inline).
    _fault_trip("pool.worker_task")
    assert _WORKER_STATE is not None, "worker pool used before initialization"
    return shard_index, _WORKER_STATE.local_skyline(shard_index, overrides)


class _PoolFailure(Exception):
    """Internal signal: a pool worker died or failed (triggers self-healing)."""


# ---------------------------------------------------------------------- #
# Results
# ---------------------------------------------------------------------- #
@dataclass
class ShardedQueryResult:
    """Outcome of one sharded skyline query, with per-phase accounting.

    ``local_window`` is the ``(start, end)`` of the local phase on the
    :func:`time.monotonic` clock — concurrency tests use it to prove that
    two queries' local phases actually overlapped in wall-clock time.
    ``merge_batches`` counts the batched kernel calls of the sort-merge
    (window and intra-chunk tests).
    """

    name: str
    skyline_ids: list[int]
    seconds: float
    seconds_local: float
    seconds_merge: float
    local_skyline_sizes: list[int] = field(default_factory=list)
    merge_batches: int = 0
    merge_checks: int = 0
    local_window: tuple[float, float] = (0.0, 0.0)

    @property
    def skyline_set(self) -> frozenset[int]:
        return frozenset(self.skyline_ids)


class _MergeCounter:
    """Minimal dominance-check counter accepted by the kernel layer."""

    __slots__ = ("dominance_checks",)

    def __init__(self) -> None:
        self.dominance_checks = 0


@dataclass(frozen=True)
class _MergeArtifacts:
    """Per-topology ground truth of the sort-merge.

    ``code_maps`` are the per-attribute target code spaces of ``tables``
    under the query's effective schema; ``depths`` the DAG depth of every
    frame-canonical code — the gather tables of the monotone SFS key vector,
    whose (mathematically) strict decrease along dominance is the invariant
    the sort-merge leans on.
    """

    tables: RecordTables
    code_maps: tuple[dict, ...]
    depths: tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------- #
# The executor
# ---------------------------------------------------------------------- #
class ShardedExecutor:
    """Answer dynamic-preference skyline queries over a sharded dataset.

    Parameters
    ----------
    dataset / frame:
        The relation to shard, as an :class:`~repro.data.columns.EncodedFrame`
        (a bare ``dataset`` is encoded into one).  Shards are row slices of
        the frame, cut once at construction.
    num_shards:
        Number of shards; defaults to ``max(1, workers)``.
    workers:
        Worker processes for the local phase.  ``0`` (default, or via the
        ``REPRO_WORKERS`` environment variable) runs in-process; ``>= 1``
        uses a persistent pool started lazily on the first query (or
        explicitly with :meth:`start`).
    partitioner:
        ``"round-robin"`` or ``"po-group"`` (see
        :mod:`repro.parallel.partition`).
    kernel / max_entries:
        Dominance kernel backend and R-tree fanout, forwarded to the local
        sTSS runs and the merge phase.
    encoding_cache_size:
        LRU bound of each worker's per-DAG interval-encoding cache (the
        batch engine forwards its ``cache_size`` here).
    task_timeout:
        Seconds to wait for one shard's local skyline from the pool before
        failing the query with :class:`~repro.exceptions.QueryError` —
        without it a crashed worker (e.g. OOM-killed) would wedge the query,
        and any service serializing on it, forever.  ``None`` disables.
    store / store_rows:
        A :class:`~repro.store.reader.DatasetStore` backing ``frame`` plus
        the store-global row position of each frame row.  When set, pool
        workers receive only ``(path, rows)`` specs, reopen the packed file
        themselves and slice their shards from the mapped frame — sharing
        the parent's bytes through the OS page cache instead of holding
        pickled copies.
    """

    def __init__(
        self,
        dataset: Dataset | None = None,
        *,
        num_shards: int | None = None,
        workers: int | str | None = None,
        partitioner: str = "round-robin",
        kernel=None,
        max_entries: int = 32,
        encoding_cache_size: int = 256,
        task_timeout: float | None = 600.0,
        frame: EncodedFrame | None = None,
        store=None,
        store_rows=None,
    ) -> None:
        if frame is None:
            if dataset is None:
                raise QueryError("a sharded executor needs a dataset or an encoded frame")
            frame = EncodedFrame.from_dataset(dataset)
        elif dataset is not None and len(frame) != len(dataset):
            raise QueryError(
                f"encoded frame has {len(frame)} rows but the dataset has "
                f"{len(dataset)}"
            )
        self.schema = frame.schema
        self.workers = resolve_workers(workers)
        self.num_shards = max(1, self.workers) if num_shards is None else num_shards
        if self.num_shards < 1:
            raise QueryError(f"num_shards must be >= 1, got {self.num_shards}")
        self.kernel = resolve_kernel(kernel)
        self.max_entries = max_entries
        self.encoding_cache_size = encoding_cache_size
        self.task_timeout = task_timeout
        # One encoded frame over the whole dataset, sliced per shard — what
        # travels to workers and feeds the merge.
        self._frame = frame
        # Store shipping: workers reopen the packed file (sharing the OS page
        # cache) and slice their shards by these store-global row positions
        # instead of receiving pickled frame slices.
        self._store = store
        if store is not None:
            store_rows = (
                list(range(len(frame))) if store_rows is None else list(store_rows)
            )
            if len(store_rows) != len(frame):
                raise QueryError(
                    f"store_rows maps {len(store_rows)} rows but the frame "
                    f"has {len(frame)}"
                )
        self._store_rows = store_rows
        self.partitioner_name = partitioner
        self.shards: list[Shard] = partition_frame(frame, self.num_shards, partitioner)
        self._shard_frames = tuple(frame.take(shard.record_ids) for shard in self.shards)
        self.queries_answered = 0
        # Guards lifecycle transitions (pool start/close, lazy inline state)
        # and the counters; the phases themselves run without it, so
        # concurrent queries interleave freely.
        self._lock = threading.Lock()
        self._pools: list[multiprocessing.pool.Pool] | None = None
        self._worker_pids: list[int] = []
        # Self-healing ladder (see :meth:`local_phase`): one pool respawn is
        # allowed per executor lifetime; the next failure degrades queries to
        # inline single-process execution permanently (counters below).
        self._heal_lock = threading.Lock()
        self._respawned = False
        self._degraded = False
        self.pool_respawns = 0
        self.inline_fallbacks = 0
        self.last_pool_failure: str | None = None
        self._inline_state: _WorkerState | None = None
        self._merge_tables: LRUDict[tuple[DagKey, ...], _MergeArtifacts]
        self._merge_tables = LRUDict(encoding_cache_size)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def _owner_of(self, shard_index: int) -> int:
        """The worker owning a shard (fixed round-robin assignment)."""
        return shard_index % self.workers

    def _shard_payload(
        self, shard_index: int, *, ship_store: bool = False
    ) -> "EncodedFrame | _StoreShardSpec":
        """What ships to workers for one shard: a store spec (path + rows)
        when the executor is store-backed and the payload crosses a process
        boundary, column blocks otherwise."""
        if ship_store and self._store is not None:
            shard = self.shards[shard_index]
            return _StoreShardSpec(
                path=self._store.path,
                rows=tuple(
                    self._store_rows[position] for position in shard.record_ids
                ),
            )
        return self._shard_frames[shard_index]

    def _worker_initargs(self, shard_indices, *, ship_store: bool = False) -> tuple:
        """The pool-initializer payload holding the given shards."""
        return (
            self.schema,
            {
                index: self._shard_payload(index, ship_store=ship_store)
                for index in shard_indices
            },
            self.kernel.name,
            self.max_entries,
            self.encoding_cache_size,
        )

    def start(self) -> "ShardedExecutor":
        """Start the worker pool (no-op when ``workers == 0`` or already up).

        Each worker is a single-process pool that receives *only its own
        shards* (fixed round-robin shard-to-worker assignment) exactly once,
        through the pool initializer — per query only the DAG overrides
        travel.  Forking is only safe while the process is single-threaded
        (forking a multithreaded process can clone held locks into the
        child), so callers that spin up threads or an event loop — the query
        service does both — should start the pool eagerly; a lazy start from
        a multithreaded process falls back to ``spawn``.
        """
        with self._lock:
            if self.workers >= 1 and self._pools is None:
                can_fork = (
                    "fork" in multiprocessing.get_all_start_methods()
                    and threading.active_count() == 1
                )
                context = multiprocessing.get_context("fork" if can_fork else "spawn")
                pools = []
                for worker in range(self.workers):
                    owned = [
                        index
                        for index in range(len(self.shards))
                        if self._owner_of(index) == worker
                    ]
                    pools.append(
                        context.Pool(
                            processes=1,
                            initializer=_init_worker,
                            initargs=self._worker_initargs(owned, ship_store=True),
                        )
                    )
                self._pools = pools
                # Remember each worker's pid: a pool whose process has a new
                # pid (or an exit code) lost its worker — the race-free death
                # signal the health check keys on.
                self._worker_pids = [pool._pool[0].pid for pool in pools]
        return self

    def close(self) -> None:
        """Shut the worker pools down (idempotent).

        Must not race in-flight queries: drain them first (see the module
        docstring — the query service's in-flight counter does exactly
        this).
        """
        with self._lock:
            pools, self._pools = self._pools, None
        if pools is not None:
            for pool in pools:
                pool.terminate()
            for pool in pools:
                pool.join()

    def __enter__(self) -> "ShardedExecutor":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter-shutdown guard
        try:
            self.close()
        # During interpreter shutdown pool/module state is half-torn-down;
        # any failure here is unreportable by design.
        except Exception:  # reprolint: disable=typed-errors -- shutdown guard
            pass

    # ------------------------------------------------------------------ #
    # Query execution
    # ------------------------------------------------------------------ #
    def _validate_overrides(self, overrides: Mapping[str, PartialOrderDAG]) -> None:
        # Shard workers skip row re-validation (validate=False); the shared
        # up-front check is the cheap equivalent.
        validate_override_domains(self.schema.partial_order_attributes, overrides)

    def local_phase(
        self,
        overrides: dict[str, PartialOrderDAG],
        *,
        deadline: float | None = None,
    ) -> list[list[int]]:
        """Per shard: parent-dataset ids of the shard's local skyline.

        Thread-safe and lock-free over the immutable shards — the query
        service runs several queries' local phases concurrently and only
        synchronizes later, at the merge and cache boundaries.

        Worker failures self-heal instead of failing the query: a remote
        exception or a dead worker process respawns the pools once
        (``pool_respawns``); a failure after that degrades this executor to
        inline single-process execution for good (``inline_fallbacks``, both
        surfaced by :meth:`summary`) — the query still gets its correct
        skyline.  Task timeouts and caller deadlines are *not* healed: they
        raise :class:`~repro.exceptions.QueryError` /
        :class:`~repro.exceptions.DeadlineExceededError` as ever.
        """
        tasks = [
            (index, overrides) for index, shard in enumerate(self.shards) if len(shard)
        ]
        if self.workers >= 1 and not self._degraded:
            self.start()
            try:
                outcomes = self._pool_outcomes(tasks, deadline)
            except (DeadlineExceededError, QueryError):
                raise
            except Exception as error:  # the pool boundary: remote failures
                # arrive untyped (whatever the worker raised, or our death
                # signal) — all of them feed the healing ladder.
                outcomes = self._heal_and_retry(tasks, deadline, error)
        else:
            outcomes = self._inline_outcomes(tasks)
        local_ids: list[list[int]] = [[] for _ in self.shards]
        for shard_index, positions in outcomes:
            record_ids = self.shards[shard_index].record_ids
            local_ids[shard_index] = [record_ids[position] for position in positions]
        return local_ids

    def _pool_outcomes(self, tasks, deadline: float | None):
        """Submit ``tasks`` to the pools and gather results, watching health.

        Polls with a short timeout so a dead worker (whose task would
        otherwise hang until ``task_timeout``) is noticed within ~50ms via
        the pid/exit-code check and surfaces as :class:`_PoolFailure`.
        """
        pools = self._pools
        assert pools is not None
        pids = list(self._worker_pids)
        pending = [
            pools[self._owner_of(index)].apply_async(
                _worker_local_skyline, ((index, task_overrides),)
            )
            for index, task_overrides in tasks
        ]
        timeout_at = (
            None
            if self.task_timeout is None
            else time.monotonic() + self.task_timeout
        )
        outcomes = []
        for result in pending:
            while True:
                try:
                    outcomes.append(result.get(0.05))
                    break
                except multiprocessing.TimeoutError:
                    self._check_pool_health(pools, pids)
                    now = time.monotonic()
                    if deadline is not None and now >= deadline:
                        raise DeadlineExceededError(
                            "query deadline exceeded during the sharded "
                            "local phase"
                        ) from None
                    if timeout_at is not None and now >= timeout_at:
                        raise QueryError(
                            f"sharded local phase did not finish within "
                            f"{self.task_timeout:.0f}s (crashed or "
                            f"overloaded worker?)"
                        ) from None
        return outcomes

    @staticmethod
    def _check_pool_health(pools, pids: list[int]) -> None:
        for index, pool in enumerate(pools):
            processes = list(pool._pool)
            alive = [
                process
                for process in processes
                if process.exitcode is None
                and (index >= len(pids) or process.pid == pids[index])
            ]
            if not alive:
                raise _PoolFailure(
                    f"worker process for pool {index} died "
                    f"(exit codes: {[p.exitcode for p in processes]})"
                )

    def _heal_and_retry(self, tasks, deadline: float | None, error: Exception):
        """The self-healing ladder after a pool failure.

        First failure: terminate and respawn the pools, retry the tasks.
        Any failure beyond that: close the pools for good and answer this
        (and every later) query inline — degraded but correct.
        """
        with self._heal_lock:
            self.last_pool_failure = f"{type(error).__name__}: {error}"
            if not self._degraded:
                respawn = False
                with self._lock:
                    if not self._respawned:
                        self._respawned = respawn = True
                        self.pool_respawns += 1
                if respawn:
                    self.close()
                    self.start()
                    try:
                        return self._pool_outcomes(tasks, deadline)
                    except DeadlineExceededError:
                        raise
                    except Exception as retry_error:
                        # Respawn did not help — record why and degrade below.
                        self.last_pool_failure = (
                            f"{type(retry_error).__name__}: {retry_error}"
                        )
                with self._lock:
                    self._degraded = True
                    self.inline_fallbacks += 1
                self.close()
        return self._inline_outcomes(tasks)

    def _inline_outcomes(self, tasks):
        with self._lock:
            if self._inline_state is None:
                self._inline_state = _WorkerState(
                    *self._worker_initargs(range(len(self.shards)))
                )
            state = self._inline_state
        return [
            (index, state.local_skyline(index, task_overrides))
            for index, task_overrides in tasks
        ]

    def _merge_artifacts(
        self, overrides: dict[str, PartialOrderDAG]
    ) -> _MergeArtifacts:
        """Per-topology ground-truth tables and key gathers for the merge."""
        key = tuple(
            dag_signature(overrides.get(attribute.name, attribute.dag))
            for attribute in self.schema.partial_order_attributes
        )
        cached = self._merge_tables.get(key)
        if cached is None:
            schema = (
                self.schema.replace_partial_order(overrides) if overrides else self.schema
            )
            tables = RecordTables.from_schema(schema)
            cached = _MergeArtifacts(
                tables,
                tuple(table.code_of for table in tables.attributes),
                tuple(tuple(column) for column in depth_columns(schema, self._frame)),
            )
            self._merge_tables[key] = cached
        return cached

    def merge_phase(
        self,
        local_ids: list[list[int]],
        overrides: dict[str, PartialOrderDAG],
        counter=None,
    ) -> tuple[list[int], int]:
        """Cross-examine local skylines; returns (survivor ids, batch count).

        A sort-merge: one key vector, one stable sort, chunked block tests;
        the batch count is the number of batched kernel calls issued.  The
        stream is the local skylines ordered by ``(monotone key, record
        id)``.  Correctness: dominance implies a *mathematically* strictly
        smaller sort key, which floating-point summation can weaken to
        equality (``1e16 + 1.0 == 1e16``) — but never invert.  So every
        dominator of a record precedes it in the stream or ties its key, and
        it suffices to test against the *surviving* prefix plus the record's
        own key-tie run: chunks are extended to the end of a tie run, so an
        equal-key dominator is always resolved by the intra-chunk pass.  If
        a record's dominator was itself eliminated, transitivity hands the
        verdict to the eliminator.
        """
        if counter is None:
            counter = _MergeCounter()
        # With at most one non-empty local skyline there is nothing to
        # cross-examine: its members are the global skyline verbatim.
        if sum(1 for ids in local_ids if ids) <= 1:
            return sorted(record_id for ids in local_ids for record_id in ids), 0
        artifacts = self._merge_artifacts(overrides)
        frame = self._frame
        stream_ids = [record_id for ids in local_ids for record_id in ids]
        sub = frame.take(stream_ids)
        codes = sub.remap_codes(artifacts.code_maps)
        keys = sub.monotone_keys(artifacts.depths)
        order = ordered_rows(keys, stream_ids, uses_numpy=sub.uses_numpy)
        window = self.kernel.record_store(artifacts.tables)
        survivors: list[int] = []
        batches = 0
        start = 0
        total = len(order)
        while start < total:
            end = min(start + MERGE_CHUNK, total)
            # Never split a key-tie run: a dominator whose float key ties its
            # victim's must share the victim's chunk to be cross-examined.
            while end < total and keys[order[end]] == keys[order[end - 1]]:
                end += 1
            chunk = order[start:end]
            start = end
            alive = chunk
            if len(window):
                batches += 1
                mask = window.block_dominated_columns(
                    EncodedFrame.take_rows(sub.to, chunk),
                    EncodedFrame.take_rows(codes, chunk),
                    counter=counter,
                )
                alive = [row for row, dead in zip(chunk, mask) if not dead]
            if len(alive) > 1:
                # Resolve the chunk against itself: only stream predecessors
                # (smaller-or-equal keys) can dominate, and strictness makes
                # the self-comparison harmless.
                batches += 1
                alive_to = EncodedFrame.take_rows(sub.to, alive)
                alive_codes = EncodedFrame.take_rows(codes, alive)
                mask = self.kernel.record_block_dominated_columns(
                    artifacts.tables,
                    alive_to,
                    alive_codes,
                    alive_to,
                    alive_codes,
                    counter=counter,
                )
                alive = [row for row, dead in zip(alive, mask) if not dead]
            if alive:
                window.extend(
                    EncodedFrame.take_rows(sub.to, alive),
                    EncodedFrame.take_rows(codes, alive),
                )
                survivors.extend(stream_ids[row] for row in alive)
        return sorted(survivors), batches

    def query(
        self,
        dag_overrides: Mapping[str, PartialOrderDAG] | None = None,
        *,
        name: str = "query",
        deadline: float | None = None,
    ) -> ShardedQueryResult:
        """Compute the skyline under (possibly overridden) preferences.

        Returns parent-dataset record ids, identical to what a single-process
        sTSS run over the whole dataset would report.  ``deadline`` is an
        absolute :func:`time.monotonic` timestamp checked during the local
        phase's pool wait and again at the merge boundary.
        """
        overrides = dict(dag_overrides or {})
        self._validate_overrides(overrides)
        started = time.perf_counter()
        local_started = time.monotonic()
        local_ids = self.local_phase(overrides, deadline=deadline)
        local_done = time.perf_counter()
        local_window = (local_started, time.monotonic())
        if deadline is not None and time.monotonic() >= deadline:
            raise DeadlineExceededError(
                "query deadline exceeded before the cross-shard merge phase"
            )
        counter = _MergeCounter()
        skyline_ids, batches = self.merge_phase(local_ids, overrides, counter)
        finished = time.perf_counter()
        with self._lock:
            self.queries_answered += 1
        return ShardedQueryResult(
            name=name,
            skyline_ids=skyline_ids,
            seconds=finished - started,
            seconds_local=local_done - started,
            seconds_merge=finished - local_done,
            local_skyline_sizes=[len(ids) for ids in local_ids],
            merge_batches=batches,
            merge_checks=counter.dominance_checks,
            local_window=local_window,
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def summary(self) -> dict[str, object]:
        return {
            "dataset_size": len(self._frame),
            "store": self._store.path if self._store is not None else None,
            "num_shards": self.num_shards,
            "shard_sizes": [len(shard) for shard in self.shards],
            "workers": self.workers,
            "partitioner": self.partitioner_name,
            "kernel": self.kernel.name,
            "queries_answered": self.queries_answered,
            "pool_running": self._pools is not None,
            "pool_respawns": self.pool_respawns,
            "inline_fallbacks": self.inline_fallbacks,
            "degraded_to_inline": self._degraded,
            "last_pool_failure": self.last_pool_failure,
        }
