"""The chaos identity matrix: faulted reads answer identically or fail typed.

For every read-path fault point and mode, queries must either return results
bitwise-identical to a fault-free run or raise a typed
:class:`~repro.exceptions.ReproError` — never partial results, never silent
divergence, never a hang (every scenario runs under ``assert_completes``).
"""

from __future__ import annotations

import pytest

from repro.api import open_dataset
from repro.engine.batch import BatchQuery, queries_from_seeds
from repro.exceptions import ReproError
from repro.faults.registry import describe, install
from repro.parallel.executor import ShardedExecutor


def _queries(schema):
    return [BatchQuery("base")] + queries_from_seeds(schema, range(31, 35))


def _attempt(engine, query, expected):
    """One faulted query: 'identical', or 'typed-error' — anything else fails."""
    try:
        result = engine.run_query(query)
    except ReproError:
        return "typed-error"
    assert result.skyline_ids == expected, (
        f"faulted query {query.name!r} diverged from the fault-free run"
    )
    return "identical"


class TestStoreReadFaults:
    @pytest.mark.parametrize(
        "clause",
        [
            "store.section_read:raise:times=2",
            "store.section_read:delay:ms=2",
            "store.section_read:corrupt:times=2",
        ],
    )
    def test_identity_or_typed_error(self, packed_store, bounded, clause):
        path, _ = packed_store

        def scenario():
            with open_dataset(path, workers=0) as engine:
                schema = engine.schema
                queries = _queries(schema)
                reference = [engine.run_query(q).skyline_ids for q in queries]
            install(clause)
            outcomes = []
            try:
                with open_dataset(path, workers=0) as engine:
                    for query, expected in zip(_queries(schema), reference):
                        outcomes.append(_attempt(engine, query, expected))
            except ReproError:
                # The store open itself may fail typed (sections read at
                # open trip before any query ran) — a valid outcome.
                outcomes.append("typed-error")
            return outcomes

        outcomes = bounded(scenario)
        assert outcomes
        assert set(outcomes) <= {"identical", "typed-error"}
        if "delay" in clause:
            # Delays never change results.
            assert set(outcomes) == {"identical"}
            assert any(clause["fires"] > 0 for clause in describe())


class TestPoolWorkerFaults:
    """The sharded executor's pool heals (the engine no longer uses it)."""

    @pytest.mark.parametrize(
        "clause, heals",
        [
            ("pool.worker_task:raise:times=1", True),
            ("pool.worker_task:delay:ms=20,times=2", False),
            ("pool.worker_task:exit:times=1", True),
        ],
    )
    def test_identity_through_self_healing(
        self, chaos_workload, bounded, monkeypatch, clause, heals
    ):
        _, dataset = chaos_workload
        queries = _queries(dataset.schema)

        def reference_run():
            with ShardedExecutor(dataset, workers=2, num_shards=2) as executor:
                return [executor.query(q.dag_overrides).skyline_ids for q in queries]

        reference = bounded(reference_run)
        # Injected via the environment, not install(): pool workers started
        # from a threaded parent are *spawned*, and a spawned worker arms
        # itself by resolving REPRO_FAULTS lazily on its first trip.
        monkeypatch.setenv("REPRO_FAULTS", clause)

        def scenario():
            with ShardedExecutor(dataset, workers=2, num_shards=2) as executor:
                outcomes = [
                    "identical"
                    if executor.query(query.dag_overrides).skyline_ids == expected
                    else "diverged"
                    for query, expected in zip(queries, reference)
                ]
                summary = executor.summary()
            return outcomes, summary

        outcomes, summary = bounded(scenario)
        # The healing ladder makes every pool failure recoverable: whether
        # the fault raises in the worker, delays it, or kills the process,
        # each query's answer is bitwise-identical to the fault-free run.
        assert outcomes == ["identical"] * len(outcomes)
        if heals:
            assert summary["pool_respawns"] >= 1
            assert summary["last_pool_failure"]
