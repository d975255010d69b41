"""Concurrent-client benchmark for the ``repro serve`` query service.

Measures what the per-topology engine locking actually buys: an in-process
:class:`~repro.service.server.QueryService` (real asyncio loop, real TCP
sockets, the same blocking :class:`~repro.service.client.ServiceClient` the
CLI uses) is driven by 1/2/4/8 concurrent clients, each issuing queries over
*distinct* preference-DAG topologies, so no two clients share a
per-``dag_signature`` lock.  Every response is checked against a serial
:class:`~repro.engine.batch.BatchQueryEngine` run over the same workload.

Everything lands in ``benchmarks/results/BENCH_service_concurrency.json``.

Run under pytest (``pytest benchmarks/bench_service_concurrency.py``) or
standalone::

    python benchmarks/bench_service_concurrency.py [--quick]

On a single-CPU host the clients interleave on the GIL rather than run in
parallel, so wall-clock speedups are not asserted — the benchmark records
honest numbers.
"""

from __future__ import annotations

import asyncio
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from repro.data.workloads import WorkloadSpec
from repro.engine.batch import BatchQuery, BatchQueryEngine, random_query_preferences
from repro.kernels import get_kernel
from repro.service import QueryService, ServiceClient

CLIENT_COUNTS = (1, 2, 4, 8)
QUERIES_PER_CLIENT = 4

FULL_CARDINALITY = 30_000
QUICK_CARDINALITY = 4_000


def _build_workload(cardinality: int):
    spec = WorkloadSpec(
        name="bench-service-concurrency",
        distribution="anticorrelated",
        cardinality=cardinality,
        num_total_order=3,
        num_partial_order=1,
        dag_height=6,
        dag_density=0.8,
        seed=11,
    )
    return spec.build()


class _ServiceHarness:
    """An in-process service on an ephemeral port, run on a daemon thread."""

    def __init__(self, dataset) -> None:
        self.service = QueryService(dataset)
        self._loop = asyncio.new_event_loop()
        self._address: dict[str, object] = {}
        self._started = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)

        async def main() -> None:
            host, port = await self.service.start("127.0.0.1", 0)
            self._address["host"], self._address["port"] = host, port
            self._started.set()
            await self.service.serve_until_shutdown()
            # Let connection handlers finish their close sequence before the
            # loop is torn down (on < 3.12 wait_closed does not wait for them).
            pending = [
                task
                for task in asyncio.all_tasks()
                if task is not asyncio.current_task()
            ]
            if pending:
                await asyncio.wait(pending, timeout=5)

        self._loop.run_until_complete(main())
        self._loop.close()

    def __enter__(self) -> "_ServiceHarness":
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("benchmark service did not start")
        return self

    @property
    def host(self) -> str:
        return str(self._address["host"])

    @property
    def port(self) -> int:
        return int(self._address["port"])  # type: ignore[arg-type]

    def __exit__(self, *exc_info) -> None:
        self._loop.call_soon_threadsafe(self.service.request_shutdown)
        self._thread.join(timeout=30)


def _serial_reference(dataset, seeds) -> dict[int, list[int]]:
    """Every topology's skyline from a serial single-process engine."""
    engine = BatchQueryEngine(dataset)
    return {
        seed: engine.run_query(
            BatchQuery(f"q{seed}", random_query_preferences(dataset.schema, seed))
        ).skyline_ids
        for seed in seeds
    }


def _sweep_clients(dataset, reference: dict[int, list[int]]) -> list[dict[str, object]]:
    seeds = sorted(reference)
    sweeps: list[dict[str, object]] = []
    for clients in CLIENT_COUNTS:
        # Fresh service per point: an empty result cache every time, so each
        # client count evaluates the same amount of real work.
        with _ServiceHarness(dataset) as harness:
            assignments = [seeds[index::clients] for index in range(clients)]
            barrier = threading.Barrier(clients)
            mismatched_seeds: list[int] = []
            latencies: list[float] = []

            def one_client(
                client_seeds,
                *,
                _barrier=barrier,
                _harness=harness,
                _latencies=latencies,
                _mismatched=mismatched_seeds,
            ):
                with ServiceClient(_harness.host, _harness.port, timeout=600) as client:
                    _barrier.wait()
                    for seed in client_seeds:
                        started = time.perf_counter()
                        response = client.query(seed=seed)
                        _latencies.append(time.perf_counter() - started)
                        if response["skyline_ids"] != reference[seed]:
                            _mismatched.append(seed)

            started = time.perf_counter()
            with ThreadPoolExecutor(max_workers=clients) as pool:
                list(pool.map(one_client, assignments))
            wall_seconds = time.perf_counter() - started
            stats = harness.service.stats()
        queries = len(seeds)
        sweeps.append(
            {
                "clients": clients,
                "queries": queries,
                "wall_seconds": wall_seconds,
                "throughput_qps": queries / wall_seconds if wall_seconds else 0.0,
                "latency_mean_seconds": sum(latencies) / len(latencies),
                "latency_max_seconds": max(latencies),
                "queries_evaluated": stats["engine"]["queries_evaluated"],
                "cache_hits": stats["engine"]["cache_hits"],
                "matches_serial_engine": not mismatched_seeds,
            }
        )
        print(
            f"  clients={clients}: {wall_seconds:6.2f}s wall, "
            f"{queries / wall_seconds:6.2f} q/s, "
            f"mean latency {sweeps[-1]['latency_mean_seconds'] * 1000:7.1f} ms",
            flush=True,
        )
    return sweeps


def run_benchmark(cardinality: int) -> dict[str, object]:
    _, dataset = _build_workload(cardinality)
    seeds = list(range(100, 100 + max(CLIENT_COUNTS) * QUERIES_PER_CLIENT))
    reference = _serial_reference(dataset, seeds)
    return {
        "workload": {
            "distribution": "anticorrelated",
            "cardinality": cardinality,
            "num_total_order": 3,
            "num_partial_order": 1,
            "client_counts": list(CLIENT_COUNTS),
            "queries_per_sweep": len(seeds),
            "cpu_count": os.cpu_count(),
            "kernel": get_kernel().name,
        },
        "sweeps": _sweep_clients(dataset, reference),
    }


def _save(payload: dict[str, object]) -> None:
    from conftest import save_bench_json

    path = save_bench_json("service_concurrency", payload)
    print(f"wrote {path}")


def _assert_targets(payload: dict[str, object]) -> None:
    for sweep in payload["sweeps"]:
        assert sweep["matches_serial_engine"], (
            f"concurrent responses diverged from the serial engine at "
            f"{sweep['clients']} clients"
        )
        # Distinct topologies and a fresh cache per point: every query is a
        # real evaluation, so the concurrency is not a cache artifact.
        assert sweep["queries_evaluated"] == sweep["queries"], sweep


def test_service_concurrency():
    """Pytest entry point (quick cardinality, correctness always asserted)."""
    payload = run_benchmark(QUICK_CARDINALITY)
    _save(payload)
    _assert_targets(payload)


def main(argv: list[str] | None = None) -> int:
    arguments = list(sys.argv[1:] if argv is None else argv)
    cardinality = QUICK_CARDINALITY if "--quick" in arguments else FULL_CARDINALITY
    payload = run_benchmark(cardinality)
    _save(payload)
    _assert_targets(payload)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
