"""Shared fixtures for the chaos suite (:mod:`repro.faults`).

Every test starts and ends with a clean fault registry and no
``REPRO_FAULTS`` in the environment, so clauses installed by one test can
never leak into another.  ``assert_completes`` is the suite-wide hang guard:
chaos tests run their scenario through it so an injected fault that deadlocks
fails the test instead of wedging the whole run.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.data.workloads import WorkloadSpec
from repro.faults import registry as faults_registry

#: Upper bound for any single chaos scenario (generous: pools fork + retry).
CHAOS_DEADLINE_SECONDS = 120.0


@pytest.fixture(autouse=True)
def clean_fault_registry(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    faults_registry.reset()
    yield
    faults_registry.reset()


@pytest.fixture
def bounded():
    """The suite hang guard as a fixture (conftest is not importable here)."""
    return assert_completes


def assert_completes(fn, timeout: float = CHAOS_DEADLINE_SECONDS):
    """Run ``fn()`` in a worker thread, failing the test if it hangs."""
    outcome: dict[str, object] = {}

    def runner() -> None:
        try:
            outcome["value"] = fn()
        except BaseException as error:  # re-raised in the test thread below
            outcome["error"] = error

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    thread.join(timeout)
    if thread.is_alive():
        pytest.fail(f"chaos scenario still running after {timeout:.0f}s (hang)")
    if "error" in outcome:
        raise outcome["error"]  # type: ignore[misc]
    return outcome.get("value")


@pytest.fixture
def chaos_workload():
    spec = WorkloadSpec(
        name="chaos",
        cardinality=250,
        num_total_order=2,
        num_partial_order=1,
        dag_height=3,
        dag_density=0.8,
        to_domain_size=40,
        seed=13,
    )
    return spec.build()


@pytest.fixture
def packed_store(chaos_workload, tmp_path):
    from repro.api import pack

    _, dataset = chaos_workload
    path = str(tmp_path / "chaos.rpro")
    pack(dataset, path)
    return path, dataset


@pytest.fixture
def running_service(chaos_workload):
    """A live query service on an ephemeral port: ``(service, host, port)``.

    Server and test share one process, so faults installed by a test are
    visible to both sides — distinct points target each side independently
    (``service.handler`` fires in the dispatch loop, ``client.socket`` in
    the client transport).
    """
    from repro.service import QueryService

    _, dataset = chaos_workload
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
