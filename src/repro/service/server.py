"""The asyncio query server behind ``repro serve``.

:class:`QueryService` owns one :class:`~repro.engine.batch.BatchQueryEngine`
(and through it, optionally, a sharded executor with a persistent worker
pool).  All connected clients share the engine — and therefore its
per-PO-group prefilter, its bounded per-topology result cache and the pool —
which is the whole point of running the engine as a service instead of a
per-query process.

Queries are CPU-bound, so they run on the event loop's default thread-pool
executor.  The engine itself is a concurrency-safe façade: concurrent
clients querying *distinct* topologies interleave their shard-local skyline
phases and synchronize only at the engine's merge and cache boundaries
(per-``dag_signature`` locks), while clients querying the *same* topology
elect one computing thread and share its cached result.  The service's
global lock therefore guards only pool lifecycle and shutdown: an in-flight
counter lets :meth:`QueryService.serve_until_shutdown` drain running
queries before the engine (and its worker pool) is closed.
"""

from __future__ import annotations

import asyncio
import functools
import json
import signal
import threading
import time

from repro.data.dataset import Dataset
from repro.engine.batch import (
    DEFAULT_CACHE_SIZE,
    BatchQuery,
    BatchQueryEngine,
    random_query_preferences,
)
from repro.engine.lru import LRUDict
from repro.exceptions import DeadlineExceededError, QueryError, ReproError
from repro.faults.registry import describe as _faults_describe
from repro.faults.registry import trip_async as _fault_trip_async
from repro.service import protocol

#: Refuse request lines larger than this (1 MB covers any sane DAG override).
MAX_REQUEST_BYTES = 1 << 20

#: Remembered mutation idempotency tokens (token -> successful response).
TOKEN_CACHE_SIZE = 1024


class QueryService:
    """A shared-engine skyline query service speaking the JSON protocol."""

    def __init__(
        self,
        dataset: "Dataset | BatchQueryEngine | object",
        *,
        kernel=None,
        workers: int | str | None = None,
        num_shards: int | None = None,
        partitioner: str = "round-robin",
        cache_size: int = DEFAULT_CACHE_SIZE,
        max_entries: int = 32,
        prefilter: bool = True,
    ) -> None:
        # The first argument is anything the engine can open: a Dataset, a
        # DatasetStore, a packed-store path — or a ready-made engine (the
        # ``repro.api`` facade hands one over), whose construction options
        # then win over this constructor's.
        if isinstance(dataset, BatchQueryEngine):
            self.engine = dataset
        else:
            self.engine = BatchQueryEngine(
                dataset,
                kernel=kernel,
                workers=workers,
                num_shards=num_shards,
                partitioner=partitioner,
                cache_size=cache_size,
                max_entries=max_entries,
                prefilter=prefilter,
            )
        # Start the worker pool (if any) now, while the process is still
        # single-threaded — the event loop and executor threads come later,
        # and forking after they exist is unsafe (see ShardedExecutor.start).
        if self.engine.executor is not None:
            self.engine.executor.start()
        self.schema = self.engine.schema
        self.started_at = time.time()
        self.connections_served = 0
        self.requests_served = 0
        self.query_seconds_total = 0.0
        self.query_seconds_max = 0.0
        # Lifecycle only: queries no longer serialize on a global lock (the
        # engine synchronizes internally, per topology); this lock guards
        # engine/pool shutdown against racing lifecycle calls, and the
        # in-flight counter + condition let shutdown drain running queries.
        self._lifecycle_lock = asyncio.Lock()
        self._inflight = 0
        self._drained = asyncio.Condition()
        self._shutdown = asyncio.Event()
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[asyncio.StreamWriter] = set()
        # Replay cache for mutation idempotency tokens.  Guarded by a thread
        # lock (not an asyncio one): the check-run-remember sequence executes
        # inside worker threads, and holding the lock across the engine call
        # is what makes "same token, same response, applied once" atomic —
        # the engine's write latch serializes mutations anyway.
        self._idempotent: LRUDict[str, dict[str, object]] = LRUDict(TOKEN_CACHE_SIZE)
        self._token_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self, host: str, port: int) -> tuple[str, int]:
        """Bind and start serving; returns the actual ``(host, port)``.

        Pass ``port=0`` for an ephemeral port (tests, CI smoke).
        """
        self._server = await asyncio.start_server(
            self._handle_connection, host, port, limit=MAX_REQUEST_BYTES
        )
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def serve_until_shutdown(self) -> None:
        """Serve until a client sends ``shutdown`` (or the task is cancelled)."""
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._shutdown.wait()
            # Unblock handlers parked in readline() on idle connections —
            # Server.wait_closed() (the context exit) waits for them on
            # Python >= 3.12, so a lingering client must not hold us up.
            for writer in list(self._connections):
                writer.close()
        # On Python < 3.12 wait_closed() does NOT wait for handlers, so an
        # in-flight query may still hold the worker pool; terminating the
        # pool mid-map would strand its executor thread forever.  Drain the
        # in-flight queries first, then close the engine under the lifecycle
        # lock.
        async with self._drained:
            await self._drained.wait_for(lambda: self._inflight == 0)
        async with self._lifecycle_lock:
            self.engine.close()

    def request_shutdown(self) -> None:
        self._shutdown.set()

    def install_signal_handlers(self) -> None:
        """Make SIGTERM/SIGINT trigger the same clean shutdown as the op.

        The handler only sets the shutdown flag; :meth:`serve_until_shutdown`
        then stops accepting, drains in-flight requests and closes the
        engine (and its worker pool) exactly as a client ``shutdown`` would.
        Must run inside the event loop (``asyncio`` signal handlers are
        loop-bound); a no-op on platforms without ``add_signal_handler``.
        """
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, self.request_shutdown)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                break

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections_served += 1
        self._connections.add(writer)
        try:
            while not self._shutdown.is_set():
                try:
                    line = await reader.readline()
                except ConnectionError:
                    break
                except ValueError:  # request line exceeded MAX_REQUEST_BYTES
                    await self._respond(
                        writer, protocol.error_response("request too large")
                    )
                    break
                if not line:
                    break
                response = await self._dispatch_line(line)
                delivered = await self._respond(writer, response)
                if response.get("stopping"):
                    # Honor the shutdown even when the acknowledgment could
                    # not be delivered (fire-and-forget client).
                    self.request_shutdown()
                    break
                if not delivered:
                    break
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:  # pragma: no cover - platform-dependent
                pass

    async def _respond(self, writer: asyncio.StreamWriter, response: dict) -> bool:
        """Write one response line; False when the client is already gone."""
        try:
            writer.write(json.dumps(response).encode("utf-8") + b"\n")
            await writer.drain()
        except (ConnectionError, OSError):
            return False
        return True

    async def _dispatch_line(self, line: bytes) -> dict[str, object]:
        try:
            request = json.loads(line)
        except ValueError:
            return protocol.error_response("request is not valid JSON")
        if not isinstance(request, dict):
            return protocol.error_response("request must be a JSON object")
        self.requests_served += 1
        op = request.get("op", "query")
        try:
            # The fault-injection seam of the whole dispatch path: a raise
            # here relays as a typed error response, a delay awaits without
            # blocking the loop (chaos tests drive both).
            await _fault_trip_async("service.handler")
            if op == "ping":
                return protocol.ok_response(pong=True, protocol=protocol.PROTOCOL_VERSION)
            if op == "stats":
                return protocol.ok_response(stats=self.stats())
            if op == "shutdown":
                return protocol.ok_response(stopping=True)
            if op == "query":
                return await self._run_query(request)
            if op == "insert":
                return await self._run_insert(request)
            if op == "delete":
                return await self._run_delete(request)
            if op == "compact":
                return await self._run_compact(request)
            return protocol.error_response(f"unknown op {op!r}")
        except DeadlineExceededError as error:
            return protocol.error_response(
                str(error), kind=protocol.ERROR_KIND_DEADLINE
            )
        except ReproError as error:
            return protocol.error_response(str(error))

    # ------------------------------------------------------------------ #
    # Operations
    # ------------------------------------------------------------------ #
    def _build_query(self, request: dict[str, object]) -> BatchQuery:
        seed = request.get("seed")
        overrides_payload = request.get("overrides")
        if seed is not None and overrides_payload is not None:
            raise QueryError("a query takes 'seed' or 'overrides', not both")
        if seed is not None:
            if not isinstance(seed, int):
                raise QueryError("'seed' must be an integer")
            overrides = random_query_preferences(self.schema, seed)
            default_name = f"q{seed}"
        else:
            overrides = protocol.decode_overrides(overrides_payload, self.schema)
            default_name = "query" if overrides else "base"
        name = request.get("name")
        if name is not None and not isinstance(name, str):
            raise QueryError("'name' must be a string")
        return BatchQuery(name=name or default_name, dag_overrides=overrides)

    @staticmethod
    def _deadline_of(request: dict[str, object]) -> float | None:
        """The request's absolute monotonic deadline (``None`` = unbounded)."""
        deadline_ms = protocol.decode_deadline_ms(request.get("deadline_ms"))
        if deadline_ms is None:
            return None
        return time.monotonic() + deadline_ms / 1000.0

    async def _bounded(self, future: "asyncio.Future", deadline: float | None):
        """Await ``future``, bounding the wait by the request deadline.

        Belt and braces with the engine's own between-phase deadline checks:
        the engine aborts *cooperatively* at phase boundaries, while this
        ``wait_for`` guarantees the *response* deadline even if a phase
        stalls (a hung pool, an injected delay).  A timed-out worker thread
        is abandoned — the engine's next deadline check unwinds it.
        """
        if deadline is None:
            return await future
        try:
            return await asyncio.wait_for(
                future, timeout=max(deadline - time.monotonic(), 0.001)
            )
        except asyncio.TimeoutError:
            raise DeadlineExceededError(
                "request deadline exceeded awaiting the engine"
            ) from None

    async def _run_query(self, request: dict[str, object]) -> dict[str, object]:
        query = self._build_query(request)
        deadline = self._deadline_of(request)
        loop = asyncio.get_running_loop()
        # No global lock here: the engine's per-topology locks let distinct
        # topologies interleave their shard-local phases across executor
        # threads; the in-flight counter only keeps shutdown honest.
        async with self._drained:
            # Checked under the condition's lock so shutdown's drain can
            # never miss a query that slipped in after the flag was set.
            if self._shutdown.is_set():
                return protocol.error_response("service is shutting down")
            self._inflight += 1
        try:
            result = await self._bounded(
                loop.run_in_executor(
                    None,
                    functools.partial(
                        self.engine.run_query, query, deadline=deadline
                    ),
                ),
                deadline,
            )
        finally:
            async with self._drained:
                self._inflight -= 1
                self._drained.notify_all()
        self.query_seconds_total += result.seconds
        self.query_seconds_max = max(self.query_seconds_max, result.seconds)
        payload: dict[str, object] = {
            "name": result.name,
            "skyline_size": len(result.skyline_ids),
            "from_cache": result.from_cache,
            "seconds": result.seconds,
        }
        if not request.get("omit_ids"):
            payload["skyline_ids"] = result.skyline_ids
        return protocol.ok_response(**payload)

    async def _mutate(self, request: dict[str, object], worker) -> dict[str, object]:
        """Run one blocking mutation off-loop, inflight-counted like queries.

        The engine's read/write latch serializes the mutation against every
        in-flight query internally; here we only keep shutdown's drain
        honest and the event loop responsive.
        """
        deadline = self._deadline_of(request)
        loop = asyncio.get_running_loop()
        async with self._drained:
            if self._shutdown.is_set():
                return protocol.error_response("service is shutting down")
            self._inflight += 1
        try:
            return await self._bounded(loop.run_in_executor(None, worker), deadline)
        finally:
            async with self._drained:
                self._inflight -= 1
                self._drained.notify_all()

    def _idempotent_worker(self, op: str, token: str | None, worker):
        """Wrap a mutation worker with token replay (retry-safe mutations).

        Check, apply and remember happen atomically under one thread lock,
        so a retried delivery — the client resending after a lost response —
        replays the remembered response instead of re-applying the mutation.
        Only *successful* responses are remembered: a failed mutation may
        legitimately be retried with the same token.
        """
        if token is None:
            return worker
        key = f"{op}:{token}"

        def replaying() -> dict[str, object]:
            with self._token_lock:
                cached = self._idempotent.get(key)
                if cached is not None:
                    return {**cached, "replayed": True}
                response = worker()
                self._idempotent[key] = dict(response)
                return response

        return replaying

    async def _run_insert(self, request: dict[str, object]) -> dict[str, object]:
        rows = protocol.decode_rows(request.get("rows"), self.schema)
        token = protocol.decode_token(request.get("token"))

        def worker() -> dict[str, object]:
            ids = self.engine.insert(rows)
            return protocol.ok_response(ids=ids, inserted=len(ids))

        return await self._mutate(request, self._idempotent_worker("insert", token, worker))

    async def _run_delete(self, request: dict[str, object]) -> dict[str, object]:
        ids = protocol.decode_ids(request.get("ids"))
        token = protocol.decode_token(request.get("token"))

        def worker() -> dict[str, object]:
            deleted = self.engine.delete(ids)
            return protocol.ok_response(ids=deleted, deleted=len(deleted))

        return await self._mutate(request, self._idempotent_worker("delete", token, worker))

    async def _run_compact(self, request: dict[str, object]) -> dict[str, object]:
        def worker() -> dict[str, object]:
            return protocol.ok_response(compaction=self.engine.compact())

        return await self._mutate(request, worker)

    def stats(self) -> dict[str, object]:
        """Cache, shard and latency statistics for the ``stats`` op."""
        engine_summary = self.engine.summary()
        # Read both counters from the same locked snapshot, not live.
        queries = int(engine_summary["queries_evaluated"]) + int(
            engine_summary["cache_hits"]
        )
        return {
            "protocol": protocol.PROTOCOL_VERSION,
            "uptime_seconds": time.time() - self.started_at,
            "connections_served": self.connections_served,
            "requests_served": self.requests_served,
            "faults": _faults_describe(),
            "idempotency_tokens_remembered": len(self._idempotent),
            "queries": queries,
            "query_seconds_total": self.query_seconds_total,
            "query_seconds_mean": self.query_seconds_total / queries if queries else 0.0,
            "query_seconds_max": self.query_seconds_max,
            "schema": {
                "attributes": [
                    {
                        "name": attribute.name,
                        "kind": "po" if attribute.is_partial else "to",
                        **(
                            {"domain_size": len(attribute.domain)}
                            if attribute.is_partial
                            else {}
                        ),
                    }
                    for attribute in self.schema.attributes
                ],
            },
            "engine": engine_summary,
        }
