"""Deadline propagation: engine phase checks and service-level enforcement.

A deadline is all-or-nothing: an expired request answers a typed
:class:`~repro.exceptions.DeadlineExceededError` (``error_kind``
``deadline_exceeded`` on the wire) — never partial results.
"""

from __future__ import annotations

import time

import pytest

from repro.api import open_dataset
from repro.engine.batch import BatchQuery
from repro.exceptions import DeadlineExceededError, ServiceError
from repro.service import ServiceClient


class TestEngineDeadline:
    def test_expired_deadline_raises_before_computing(self, chaos_workload):
        _, dataset = chaos_workload
        with open_dataset(dataset, workers=0) as engine:
            with pytest.raises(DeadlineExceededError, match="deadline"):
                engine.run_query(
                    BatchQuery("base"), deadline=time.monotonic() - 1.0
                )
            # The failed attempt cached nothing: the same query without a
            # deadline computes the full answer.
            result = engine.run_query(BatchQuery("base"))
            assert result.skyline_ids and not result.from_cache

    def test_generous_deadline_answers_normally(self, chaos_workload):
        _, dataset = chaos_workload
        with open_dataset(dataset, workers=0) as engine:
            unbounded = engine.run_query(BatchQuery("base")).skyline_ids
        with open_dataset(dataset, workers=0) as engine:
            bounded = engine.run_query(
                BatchQuery("base"), deadline=time.monotonic() + 60.0
            ).skyline_ids
        assert bounded == unbounded

    def test_cached_result_served_even_past_deadline(self, chaos_workload):
        # A cache hit is instant, so an expired deadline does not block it:
        # the deadline bounds *work*, and a hit does none.
        _, dataset = chaos_workload
        with open_dataset(dataset, workers=0) as engine:
            first = engine.run_query(BatchQuery("base"))
            again = engine.run_query(
                BatchQuery("base"), deadline=time.monotonic() - 1.0
            )
            assert again.from_cache
            assert again.skyline_ids == first.skyline_ids

    def test_sharded_executor_honors_deadline(self, chaos_workload):
        from repro.parallel.executor import ShardedExecutor

        _, dataset = chaos_workload
        with ShardedExecutor(dataset, workers=2, num_shards=2) as executor:
            with pytest.raises(DeadlineExceededError):
                executor.query(deadline=time.monotonic() - 1.0)


class TestServiceDeadline:
    def test_expired_deadline_is_a_typed_wire_error(self, running_service):
        _, host, port = running_service
        with ServiceClient(host, port) as client:
            with pytest.raises(DeadlineExceededError):
                client.query(seed=1, deadline_ms=0.001, omit_ids=True)
            # The connection survives the typed failure and the deadline
            # never poisoned the cache: the same query now answers fully.
            response = client.query(seed=1, omit_ids=True)
            assert response["skyline_size"] > 0

    def test_generous_deadline_answers_normally(self, running_service):
        _, host, port = running_service
        with ServiceClient(host, port) as client:
            response = client.query(seed=2, deadline_ms=60_000, omit_ids=True)
            assert response["ok"] and response["skyline_size"] > 0

    def test_event_loop_enforces_deadline_on_a_stalled_engine(
        self, running_service
    ):
        # Even when the engine ignores its cooperative deadline checks (a
        # hung phase), asyncio.wait_for guarantees the response deadline.
        service, host, port = running_service

        def stalled(query, deadline=None):
            time.sleep(1.0)
            raise AssertionError("the stalled engine returned")

        original = service.engine.run_query
        service.engine.run_query = stalled
        try:
            started = time.monotonic()
            with ServiceClient(host, port) as client:
                with pytest.raises(DeadlineExceededError):
                    client.query(seed=3, deadline_ms=100)
            assert time.monotonic() - started < 1.0
        finally:
            service.engine.run_query = original

    @pytest.mark.parametrize("bogus", [-5, 0, "soon", True])
    def test_malformed_deadline_is_a_query_error(self, running_service, bogus):
        _, host, port = running_service
        with ServiceClient(host, port) as client:
            with pytest.raises(ServiceError, match="deadline_ms"):
                client.checked_request(
                    {"op": "query", "seed": 4, "deadline_ms": bogus}
                )

    def test_mutations_accept_deadlines(self, running_service):
        service, host, port = running_service

        def stalled():
            time.sleep(1.0)
            raise AssertionError("the stalled compaction returned")

        original = service.engine.compact
        service.engine.compact = stalled
        try:
            with ServiceClient(host, port) as client:
                with pytest.raises(DeadlineExceededError):
                    client.checked_request({"op": "compact", "deadline_ms": 100})
        finally:
            service.engine.compact = original
