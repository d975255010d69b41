"""Integration tests: in-process query service + concurrent blocking clients.

The server runs on a real asyncio event loop in a background thread, bound to
an ephemeral port; clients are the same blocking :class:`ServiceClient` the
CLI uses, fired concurrently from a thread pool.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.stss import stss_skyline
from repro.data.workloads import WorkloadSpec
from repro.engine.batch import BatchQuery, BatchQueryEngine, random_query_preferences
from repro.exceptions import ServiceError
from repro.order.dag import PartialOrderDAG
from repro.service import QueryService, ServiceClient, wait_for_service
from repro.service.protocol import decode_dag, decode_overrides, encode_dag


def _assert_stops_accepting(host, port, timeout: float = 5.0) -> None:
    """The server may answer the shutdown request a beat before the listener
    closes; poll until connections actually fail."""
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with ServiceClient(host, port, timeout=1.0) as client:
                client.ping()
        except ServiceError:
            return
        time.sleep(0.1)
    pytest.fail(f"service at {host}:{port} still accepting after shutdown")


@pytest.fixture(scope="module")
def workload():
    spec = WorkloadSpec(
        name="service-test",
        cardinality=400,
        num_total_order=2,
        num_partial_order=1,
        dag_height=4,
        dag_density=0.8,
        to_domain_size=50,
        seed=9,
    )
    return spec.build()


@pytest.fixture()
def running_service(workload):
    """A live service on an ephemeral port; yields (service, host, port)."""
    _, dataset = workload
    service = QueryService(dataset)
    loop = asyncio.new_event_loop()
    address: dict[str, object] = {}
    started = threading.Event()

    def run() -> None:
        asyncio.set_event_loop(loop)

        async def main() -> None:
            host, port = await service.start("127.0.0.1", 0)
            address["host"], address["port"] = host, port
            started.set()
            await service.serve_until_shutdown()

        loop.run_until_complete(main())
        loop.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(timeout=10), "service did not start"
    yield service, address["host"], address["port"]
    try:
        loop.call_soon_threadsafe(service.request_shutdown)
    except RuntimeError:  # loop already closed by an in-test shutdown
        pass
    thread.join(timeout=10)
    assert not thread.is_alive(), "service thread did not shut down"


class TestSingleClient:
    def test_ping_and_stats(self, running_service):
        _, host, port = running_service
        wait_for_service(host, port, timeout=5)
        with ServiceClient(host, port) as client:
            assert client.ping()["pong"] is True
            stats = client.stats()
            assert stats["engine"]["dataset_size"] == 400
            assert stats["engine"]["cache_capacity"] > 0
            assert "sharding" not in stats["engine"]
            kinds = [a["kind"] for a in stats["schema"]["attributes"]]
            assert kinds == ["to", "to", "po"]

    def test_base_query_matches_local_stss(self, running_service, workload):
        _, dataset = workload
        _, host, port = running_service
        reference = sorted(stss_skyline(dataset).skyline_ids)
        with ServiceClient(host, port) as client:
            response = client.query()
            assert response["skyline_ids"] == reference
            assert response["skyline_size"] == len(reference)

    def test_seed_and_explicit_overrides_agree(self, running_service, workload):
        schema, _ = workload
        _, host, port = running_service
        overrides = random_query_preferences(schema, 21)
        with ServiceClient(host, port) as client:
            by_seed = client.query(seed=21)
            explicit = client.query(overrides=overrides)
            assert by_seed["skyline_ids"] == explicit["skyline_ids"]
            assert explicit["from_cache"] is True

    def test_omit_ids(self, running_service):
        _, host, port = running_service
        with ServiceClient(host, port) as client:
            response = client.query(omit_ids=True)
            assert "skyline_ids" not in response and response["skyline_size"] > 0

    def test_errors_do_not_kill_the_connection(self, running_service):
        _, host, port = running_service
        with ServiceClient(host, port) as client:
            bad = client.request({"op": "query", "overrides": {"nope": {}}})
            assert bad["ok"] is False and "nope" in bad["error"]
            bad = client.request({"op": "frobnicate"})
            assert bad["ok"] is False
            bad = client.request({"op": "query", "seed": 1, "overrides": {}})
            assert bad["ok"] is False
            assert client.ping()["pong"] is True

    def test_outside_values_cost_a_domain_sized_key(self, running_service, workload):
        """A client that pads an override with thousands of values outside
        the domain gets the answer of the domain-only DAG it implies, from the
        same cache entry: the engine keys and answers the domain alone."""
        schema, _ = workload
        _, host, port = running_service
        attribute = schema.partial_order_attributes[0]
        top, bottom = attribute.domain[0], attribute.domain[-1]
        outside = [-value for value in range(1, 20_001)]
        chain = [top, *outside, bottom]
        padded = PartialOrderDAG([*attribute.domain, *outside], list(zip(chain, chain[1:])))
        narrow = PartialOrderDAG(attribute.domain, [(top, bottom)])
        with ServiceClient(host, port) as client:
            wide = client.query(overrides={attribute.name: padded})
            assert wide["ok"] is True
            same = client.query(overrides={attribute.name: narrow})
            assert same["from_cache"] is True
            assert same["skyline_ids"] == wide["skyline_ids"]

    @pytest.mark.parametrize("seed", [True, 1.5, "1"])
    def test_a_seed_must_be_an_integer(self, running_service, seed):
        _, host, port = running_service
        with ServiceClient(host, port) as client:
            bad = client.request({"op": "query", "seed": seed})
            assert bad == {"ok": False, "error": "'seed' must be an integer"}


class TestConcurrentClients:
    def test_shared_cache_across_clients(self, running_service):
        service, host, port = running_service
        hits_before = service.engine.cache_hits
        evaluated_before = service.engine.queries_evaluated

        def one_client(_: int):
            with ServiceClient(host, port) as client:
                return client.query(seed=77)

        with ThreadPoolExecutor(max_workers=6) as pool:
            responses = list(pool.map(one_client, range(6)))

        first = responses[0]["skyline_ids"]
        assert all(response["skyline_ids"] == first for response in responses)
        # The per-topology lock elects exactly one computing client; the
        # other five hit the shared per-topology cache.
        assert service.engine.queries_evaluated == evaluated_before + 1
        assert service.engine.cache_hits == hits_before + 5
        assert sum(1 for r in responses if r["from_cache"]) == 5

    def test_distinct_topologies_compute_concurrently(self, workload):
        """Two concurrent queries must both be computing their skyline at
        once — deterministic proof that the global engine lock is gone.

        Each query's skyline computation blocks on a two-party barrier
        first: if the service still serialized queries, the first one would
        wait out the barrier's timeout alone and the test would fail.  The
        recorded monotonic windows double-check the overlap.
        """
        import time

        _, dataset = workload
        service = QueryService(dataset)
        engine = service.engine
        rendezvous = threading.Barrier(2, timeout=30)
        windows: list[tuple[float, float]] = []
        original = engine._skyline_rows

        def instrumented(query):
            started = time.monotonic()
            # Rendezvous *inside* the timed window: both windows then contain
            # the barrier-release instant, so they provably overlap.
            rendezvous.wait()
            computed = original(query)
            windows.append((started, time.monotonic()))
            return computed

        engine._skyline_rows = instrumented

        loop = asyncio.new_event_loop()
        address: dict[str, object] = {}
        started_event = threading.Event()

        def run() -> None:
            asyncio.set_event_loop(loop)

            async def main() -> None:
                host, port = await service.start("127.0.0.1", 0)
                address["host"], address["port"] = host, port
                started_event.set()
                await service.serve_until_shutdown()

            loop.run_until_complete(main())
            loop.close()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        assert started_event.wait(timeout=10)

        serial = BatchQueryEngine(dataset)
        seeds = [411, 412]  # distinct topologies -> distinct per-topology locks
        expected = {
            seed: sorted(
                serial.run_query(
                    BatchQuery(f"q{seed}", random_query_preferences(dataset.schema, seed))
                ).skyline_ids
            )
            for seed in seeds
        }

        def one_client(seed: int):
            with ServiceClient(address["host"], address["port"]) as client:
                return seed, client.query(seed=seed)

        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                outcomes = list(pool.map(one_client, seeds))
            for seed, response in outcomes:
                assert response["skyline_ids"] == expected[seed]
            # Distinct topologies: each query was evaluated, none cached.
            assert engine.summary()["queries_evaluated"] == len(seeds)
            assert len(windows) == 2
            (a_start, a_end), (b_start, b_end) = windows
            assert a_start < b_end and b_start < a_end, "computations did not overlap"
        finally:
            loop.call_soon_threadsafe(service.request_shutdown)
            thread.join(timeout=10)
        assert not thread.is_alive()

    def test_latency_accounting(self, running_service):
        service, host, port = running_service
        with ServiceClient(host, port) as client:
            client.query(seed=301)
        stats = service.stats()
        assert stats["queries"] >= 1
        assert stats["query_seconds_total"] > 0
        assert stats["query_seconds_max"] <= stats["query_seconds_total"]


class TestShutdown:
    def test_clean_shutdown_via_protocol(self, workload):
        _, dataset = workload
        service = QueryService(dataset)
        loop = asyncio.new_event_loop()
        address: dict[str, object] = {}
        started = threading.Event()

        def run() -> None:
            asyncio.set_event_loop(loop)

            async def main() -> None:
                host, port = await service.start("127.0.0.1", 0)
                address["host"], address["port"] = host, port
                started.set()
                await service.serve_until_shutdown()

            loop.run_until_complete(main())
            loop.close()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        assert started.wait(timeout=10)
        with ServiceClient(address["host"], address["port"]) as client:
            assert client.query(seed=1)["skyline_size"] > 0
            assert client.shutdown()["stopping"] is True
        thread.join(timeout=10)
        assert not thread.is_alive()
        _assert_stops_accepting(address["host"], address["port"])

    def test_shutdown_not_blocked_by_idle_connections(self, running_service):
        # An idle client parked in the server's readline() must not stall
        # serve_until_shutdown (Server.wait_closed waits for handlers on
        # Python >= 3.12); the server closes lingering connections itself.
        _, host, port = running_service
        idle = ServiceClient(host, port)
        idle.ping()
        try:
            with ServiceClient(host, port) as client:
                assert client.shutdown()["stopping"] is True
            _assert_stops_accepting(host, port)
        finally:
            idle.close()


class TestProtocol:
    def test_dag_round_trip(self):
        dag = PartialOrderDAG(["a", "b", "c"], [("a", "b"), ("b", "c")])
        decoded = decode_dag(encode_dag(dag))
        assert decoded.values == dag.values
        assert sorted(decoded.edges) == sorted(dag.edges)

    @pytest.mark.parametrize(
        "payload",
        [
            None,
            {"values": []},
            {"values": "abc"},
            {"values": ["a"], "edges": "x"},
            {"values": ["a", "b"], "edges": [["a"]]},
            {"values": ["a", "b"], "edges": [["a", "c"]]},
            {"values": ["a", "b"], "edges": [["a", "b"], ["b", "a"]]},
        ],
    )
    def test_malformed_dags_rejected(self, payload):
        from repro.exceptions import QueryError

        with pytest.raises(QueryError):
            decode_dag(payload)

    def test_override_shape_errors_name_the_attribute(self):
        from repro.exceptions import QueryError

        with pytest.raises(QueryError, match="override for 'po1'"):
            decode_overrides({"po1": {"values": []}})
        with pytest.raises(QueryError, match="'overrides' must map"):
            decode_overrides([])
