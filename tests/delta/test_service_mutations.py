"""Integration tests: live mutations through the query service protocol."""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.data.workloads import WorkloadSpec
from repro.service import QueryService, ServiceClient
from repro.service.protocol import PROTOCOL_VERSION


@pytest.fixture(scope="module")
def workload():
    spec = WorkloadSpec(
        name="service-mutation-test",
        cardinality=200,
        num_total_order=2,
        num_partial_order=1,
        dag_height=4,
        dag_density=0.8,
        to_domain_size=40,
        seed=17,
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
    except RuntimeError:
        pass
    thread.join(timeout=10)
    assert not thread.is_alive(), "service thread did not shut down"


def _dominant_row(dataset):
    row = list(dataset.records[0].values)
    row[0] = -1.0
    row[1] = -1.0
    return tuple(row)


class TestMutationOps:
    def test_insert_changes_query_results(self, running_service, workload):
        _, dataset = workload
        _, host, port = running_service
        with ServiceClient(host, port) as client:
            before = client.query()["skyline_ids"]
            ids = client.insert([_dominant_row(dataset)])
            assert ids == [len(dataset)]
            after = client.query()["skyline_ids"]
            assert ids[0] in after and after != before

    def test_delete_round_trip(self, running_service):
        _, host, port = running_service
        with ServiceClient(host, port) as client:
            victim = client.query()["skyline_ids"][0]
            # A repeated id reports once: the second kill is a no-op.
            assert client.delete([victim, victim]) == [victim]
            assert victim not in client.query()["skyline_ids"]

    def test_compact_folds_pending_mutations(self, running_service, workload):
        service, host, port = running_service
        _, dataset = workload
        with ServiceClient(host, port) as client:
            client.insert([_dominant_row(dataset)])
            client.delete([0])
            expected = client.query()["skyline_ids"]
            summary = client.compact()
            assert summary["compacted"] is True
            assert summary["rows"] == len(dataset)  # +1 insert, -1 delete
            assert client.query()["skyline_ids"] == expected
            assert client.compact() == {
                "compacted": False,
                "reason": "no pending mutations",
            }
        assert service.engine.compactions == 1

    def test_mutations_visible_across_clients(self, running_service, workload):
        _, dataset = workload
        _, host, port = running_service
        with ServiceClient(host, port) as writer:
            ids = writer.insert([_dominant_row(dataset)])
        with ServiceClient(host, port) as reader:
            assert ids[0] in reader.query()["skyline_ids"]


class TestMutationErrors:
    def test_wrong_arity_insert_rejected(self, running_service):
        _, host, port = running_service
        with ServiceClient(host, port) as client:
            bad = client.request({"op": "insert", "rows": [[1.0, 2.0]]})
            assert bad["ok"] is False
            assert "attribute values" in bad["error"]
            assert client.ping()["pong"] is True

    def test_empty_and_malformed_payloads_rejected(self, running_service):
        _, host, port = running_service
        with ServiceClient(host, port) as client:
            assert client.request({"op": "insert", "rows": []})["ok"] is False
            assert client.request({"op": "insert"})["ok"] is False
            assert client.request({"op": "delete", "ids": []})["ok"] is False
            # Booleans are ints in Python; the protocol refuses the footgun.
            bad = client.request({"op": "delete", "ids": [True]})
            assert bad["ok"] is False and "not an integer" in bad["error"]

    def test_unknown_delete_id_reported_as_error(self, running_service):
        _, host, port = running_service
        with ServiceClient(host, port) as client:
            bad = client.request({"op": "delete", "ids": [10**9]})
            assert bad["ok"] is False and "unknown record id" in bad["error"]

    def test_protocol_version_is_three(self, running_service):
        _, host, port = running_service
        assert PROTOCOL_VERSION == 3
        with ServiceClient(host, port) as client:
            assert client.ping()["protocol"] == PROTOCOL_VERSION
