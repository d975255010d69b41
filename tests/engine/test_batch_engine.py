"""Regression tests: BatchQueryEngine results equal per-query STSS."""

from __future__ import annotations

import pytest

from repro.core.stss import stss_skyline
from repro.data.dataset import Dataset
from repro.data.schema import PartialOrderAttribute, Schema, TotalOrderAttribute
from repro.data.workloads import WorkloadSpec
from repro.engine import batch as batch_module
from repro.engine import groups
from repro.engine.batch import (
    BatchQuery,
    BatchQueryEngine,
    dag_signature,
    queries_from_seeds,
    random_query_preferences,
)
from repro.engine.groups import GRAPH_PAIRS_PER_CANDIDATE
from repro.exceptions import QueryError
from repro.kernels import available_kernels
from repro.order.builders import chain, paper_example_dag
from repro.skyline.bruteforce import brute_force_skyline
from tests.conftest import assert_backing


@pytest.fixture(scope="module")
def workload():
    spec = WorkloadSpec(
        name="batch-test",
        cardinality=300,
        num_total_order=2,
        num_partial_order=2,
        dag_height=4,
        dag_density=0.8,
        to_domain_size=40,
        seed=5,
    )
    return spec.build()


@pytest.mark.usefixtures("frame_backing")
class TestAgainstPerQuerySTSS:
    @pytest.mark.parametrize("kernel_name", available_kernels())
    def test_matches_per_query_stss_on_full_dataset(self, workload, kernel_name):
        schema, dataset = workload
        engine = BatchQueryEngine(dataset, kernel=kernel_name)
        queries = [BatchQuery("base")] + queries_from_seeds(schema, [1, 2, 3])
        for result in engine.run(queries):
            if result.name == "base":
                reference = stss_skyline(dataset)
            else:
                overrides = random_query_preferences(schema, int(result.name[1:]))
                reference = stss_skyline(
                    dataset.with_schema(schema.replace_partial_order(overrides))
                )
            assert sorted(result.skyline_ids) == sorted(reference.skyline_ids)

    def test_override_queries_match_brute_force(self, workload):
        schema, dataset = workload
        engine = BatchQueryEngine(dataset)
        for seed in (4, 5):
            overrides = random_query_preferences(schema, seed)
            result = engine.run_query(BatchQuery(f"q{seed}", overrides))
            truth = brute_force_skyline(
                dataset.with_schema(schema.replace_partial_order(overrides))
            )
            assert result.skyline_set == frozenset(truth.skyline_ids)

    def test_base_query_matches_brute_force(self, workload, frame_backing):
        _, dataset = workload
        engine = BatchQueryEngine(dataset)
        assert_backing(engine._frame, frame_backing)
        result = engine.run_query(BatchQuery("base"))
        truth = frozenset(brute_force_skyline(dataset).skyline_ids)
        assert result.skyline_set == truth


@pytest.mark.usefixtures("frame_backing")
class TestCaching:
    def test_identical_topology_is_cached(self, workload):
        schema, dataset = workload
        engine = BatchQueryEngine(dataset)
        first = engine.run_query(BatchQuery("a", random_query_preferences(schema, 9)))
        second = engine.run_query(BatchQuery("b", random_query_preferences(schema, 9)))
        assert not first.from_cache and second.from_cache
        assert first.skyline_set == second.skyline_set
        assert engine.queries_evaluated == 1 and engine.cache_hits == 1

    def test_semantically_equal_dags_share_cache(self):
        # A chain given as Hasse edges vs its full transitive closure: same
        # preference relation, different edge sets.
        hasse = chain(["a", "b", "c"])
        from repro.order.dag import PartialOrderDAG

        closure = PartialOrderDAG(
            ["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")]
        )
        assert dag_signature(hasse) == dag_signature(closure)
        schema = Schema(
            [TotalOrderAttribute("x"), PartialOrderAttribute("p", hasse)]
        )
        dataset = Dataset(schema, [(1, "a"), (2, "b"), (0, "c")])
        engine = BatchQueryEngine(dataset)
        first = engine.run_query(BatchQuery("hasse", {"p": hasse}))
        second = engine.run_query(BatchQuery("closure", {"p": closure}))
        assert second.from_cache
        assert first.skyline_set == second.skyline_set


class TestPrefilter:
    def test_prefilter_never_drops_a_skyline_record(self, workload):
        schema, dataset = workload
        engine = BatchQueryEngine(dataset)
        candidates = set(engine._candidate_ids)
        assert len(candidates) <= len(dataset)
        for seed in range(6):
            overrides = random_query_preferences(schema, seed)
            reference = stss_skyline(
                dataset.with_schema(schema.replace_partial_order(overrides))
            )
            assert set(reference.skyline_ids) <= candidates


class TestValidation:
    def test_unknown_attribute_override_rejected(self, workload):
        schema, dataset = workload
        engine = BatchQueryEngine(dataset)
        with pytest.raises(QueryError):
            engine.run_query(BatchQuery("bad", {"nope": paper_example_dag()}))

    def test_domain_shrinking_override_rejected(self, workload):
        # An override missing domain values is a QueryError, checked before
        # any group is visited.
        from repro.order.dag import PartialOrderDAG

        schema, dataset = workload
        attribute = schema.partial_order_attributes[0]
        shrunk = PartialOrderDAG(list(attribute.domain)[:-1], [])
        engine = BatchQueryEngine(dataset)
        with pytest.raises(QueryError, match="missing domain values"):
            engine.run_query(BatchQuery("bad", {attribute.name: shrunk}))
        assert engine.summary()["queries_evaluated"] == 0

    def test_summary_counts(self, workload):
        schema, dataset = workload
        engine = BatchQueryEngine(dataset)
        engine.run(queries_from_seeds(schema, [1, 1, 2]))
        summary = engine.summary()
        assert summary["queries_evaluated"] == 2
        assert summary["cache_hits"] == 1
        assert summary["dataset_size"] == len(dataset)
        assert 0 < summary["candidates_after_prefilter"] <= len(dataset)

    def test_summary_reports_the_query_path(self, workload, monkeypatch):
        schema, dataset = workload
        queries = queries_from_seeds(schema, [1, 2, 3])
        engine = BatchQueryEngine(dataset, compact_threshold=0)
        graph = engine._graph
        assert engine.summary()["query_path"] == {
            "path": "graph",
            "pairs": len(graph.pairs),
            "bytes": graph.pairs.nbytes,
        }
        assert 0 < len(graph.pairs) <= GRAPH_PAIRS_PER_CANDIDATE * engine.candidate_count
        with monkeypatch.context() as patch:
            patch.setattr(groups, "GRAPH_PAIRS_PER_CANDIDATE", 0)
            levels = BatchQueryEngine(dataset, compact_threshold=0)
        assert levels.summary()["query_path"] == {"path": "levels"}
        assert [result.skyline_ids for result in engine.run(queries)] == [
            result.skyline_ids for result in levels.run(queries)
        ]
        # A front change rebuilds the graph the summary reports.
        engine.delete(engine.run_query(BatchQuery("base")).skyline_ids[:3])
        assert engine._graph is not graph
        assert engine.summary()["query_path"]["pairs"] == len(engine._graph.pairs)

    def test_one_graph_build_per_write(self, workload, monkeypatch):
        """A front-changing write rebuilds the graph once, also when it
        triggers compaction; a write that changes no front does not."""
        schema, dataset = workload
        engine = BatchQueryEngine(dataset, compact_threshold=2)
        builds = []
        build = batch_module.build_graph
        monkeypatch.setattr(
            batch_module, "build_graph", lambda *args: builds.append(1) or build(*args)
        )
        front = engine.run_query(BatchQuery("base")).skyline_ids
        engine.delete(front[:1])  # changes a front, no compaction yet
        assert (len(builds), engine.compactions) == (1, 0)
        engine.delete(front[1:2])  # changes a front and compacts
        assert (len(builds), engine.compactions) == (2, 1)
        # A copy of a live skyline row, worse on every TO attribute, joins
        # no front.
        values = list(dataset.records[front[2]].values)
        for index in range(schema.num_total_order):
            values[index] += 1
        engine.insert([values])
        assert len(builds) == 2


@pytest.mark.usefixtures("frame_backing")
class TestBoundedCaches:
    def test_result_cache_is_lru_bounded(self, workload):
        schema, dataset = workload
        engine = BatchQueryEngine(dataset, cache_size=2)
        engine.run(queries_from_seeds(schema, [1, 2, 3]))
        summary = engine.summary()
        assert summary["cached_topologies"] <= 2
        assert summary["cache_capacity"] == 2
        assert summary["cache_evictions"] >= 1
        # The evicted topology (seed 1) must be recomputed, not served stale.
        result = engine.run_query(queries_from_seeds(schema, [1])[0])
        assert not result.from_cache
        reference = stss_skyline(
            dataset.with_schema(
                schema.replace_partial_order(random_query_preferences(schema, 1))
            )
        )
        assert result.skyline_set == frozenset(reference.skyline_ids)

    def test_recently_used_entries_survive(self, workload):
        schema, dataset = workload
        engine = BatchQueryEngine(dataset, cache_size=2)
        q1, q2, q3 = queries_from_seeds(schema, [1, 2, 3])
        engine.run([q1, q2, q1, q3])  # refresh q1 before q3 evicts q2
        assert engine.run_query(q1).from_cache
        assert not engine.run_query(q2).from_cache

    def test_cache_size_must_be_positive(self, workload):
        _, dataset = workload
        with pytest.raises(QueryError):
            BatchQueryEngine(dataset, cache_size=0)


class TestWorkersOption:
    """``workers`` is still accepted by the facade; every query runs in-process."""

    @pytest.mark.usefixtures("frame_backing")
    @pytest.mark.parametrize("workers", [0, 2])
    def test_workers_engine_matches_default_engine(self, workload, workers):
        from repro.api import open_dataset

        schema, dataset = workload
        plain = BatchQueryEngine(dataset)
        queries = [BatchQuery("base")] + queries_from_seeds(schema, [11, 12])
        with open_dataset(dataset, workers=workers) as engine:
            for a, b in zip(plain.run(queries), engine.run(queries)):
                assert a.skyline_set == b.skyline_set
            summary = engine.summary()
        assert engine.executor is None
        assert not {"workers", "sharding"} & set(summary)

    def test_workers_env_var_is_validated_but_unused(self, workload, monkeypatch):
        from repro.api import open_dataset
        from repro.exceptions import ExperimentError

        _, dataset = workload
        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert open_dataset(dataset).executor is None
        monkeypatch.setenv("REPRO_WORKERS", "lots")
        with pytest.raises(ExperimentError, match="REPRO_WORKERS"):
            open_dataset(dataset)

    @pytest.mark.parametrize("retired", ["workers", "num_shards", "partitioner", "max_entries"])
    def test_engine_rejects_retired_parallel_options(self, workload, retired):
        _, dataset = workload
        with pytest.raises(TypeError):
            BatchQueryEngine(dataset, **{retired: 2})


class TestConcurrentFacade:
    """The engine must tolerate many querying threads plus summary readers."""

    def test_same_topology_elects_one_computing_thread(self, workload):
        import threading

        schema, dataset = workload
        engine = BatchQueryEngine(dataset)
        query = queries_from_seeds(schema, [31])[0]
        barrier = threading.Barrier(6)
        results: list = []

        def one_client() -> None:
            barrier.wait()
            results.append(engine.run_query(query))

        threads = [threading.Thread(target=one_client) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert engine.queries_evaluated == 1 and engine.cache_hits == 5
        first = results[0].skyline_set
        assert all(result.skyline_set == first for result in results)

    def test_summary_hammered_during_concurrent_queries(self, workload):
        """Regression: counters stay consistent once the global lock is split."""
        import threading

        schema, dataset = workload
        engine = BatchQueryEngine(dataset)
        queries = queries_from_seeds(schema, range(40, 52))
        serial = {q.name: BatchQueryEngine(dataset).run_query(q).skyline_set for q in queries}
        stop = threading.Event()
        snapshots: list[dict] = []
        errors: list[BaseException] = []

        def reader() -> None:
            try:
                while not stop.is_set():
                    snapshots.append(engine.summary())
            except BaseException as error:  # pragma: no cover - failure path
                errors.append(error)

        def client(chunk) -> None:
            try:
                for query in chunk:
                    assert engine.run_query(query).skyline_set == serial[query.name]
            except BaseException as error:  # pragma: no cover - failure path
                errors.append(error)

        reader_thread = threading.Thread(target=reader)
        clients = [
            threading.Thread(target=client, args=(queries[index::4],))
            for index in range(4)
        ]
        reader_thread.start()
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join()
        stop.set()
        reader_thread.join()
        assert not errors
        assert snapshots, "summary reader never ran"
        for summary in snapshots:
            assert 0 <= summary["queries_evaluated"] + summary["cache_hits"] <= len(queries)
        final = engine.summary()
        assert final["queries_evaluated"] + final["cache_hits"] == len(queries)
        assert final["queries_evaluated"] == len(queries)  # all topologies distinct


class TestColumnarEngine:
    """The frame data plane: phases accounted."""

    def test_phase_seconds_track_evaluated_queries(self, workload):
        schema, dataset = workload
        engine = BatchQueryEngine(dataset)
        phases = engine.summary()["phase_seconds"]
        assert set(phases) == {"encode", "build", "query"}
        assert all(value >= 0.0 for value in phases.values())
        baseline_query = phases["query"]
        engine.run([BatchQuery("base")] + queries_from_seeds(schema, [1]))
        after = engine.summary()["phase_seconds"]
        assert after["query"] > baseline_query
        # Cache hits add no phase time.
        settled = engine.summary()["phase_seconds"]
        engine.run_query(BatchQuery("base-again"))
        assert engine.summary()["phase_seconds"] == settled

    def test_phase_seconds_sum_to_sane_total(self, workload):
        import time

        schema, dataset = workload
        started = time.perf_counter()
        engine = BatchQueryEngine(dataset)
        engine.run([BatchQuery("base")] + queries_from_seeds(schema, [1, 2]))
        elapsed = time.perf_counter() - started
        phases = engine.summary()["phase_seconds"]
        # The phases are disjoint wall-clock slices of this thread's work, so
        # their sum cannot exceed the end-to-end elapsed time.
        assert 0.0 <= sum(phases.values()) <= elapsed
        assert phases["query"] > 0.0

    def test_mutations_add_no_query_phase_time(self, workload):
        # A front-changing insert clears the result cache but computes no
        # skyline: only the next query adds query-phase time.
        schema, dataset = workload
        engine = BatchQueryEngine(dataset, compact_threshold=0)
        engine.run_query(BatchQuery("base"))
        before = engine.summary()["phase_seconds"]["query"]
        row = [-1.0] * schema.num_total_order + [
            attribute.dag.values[0] for attribute in schema.partial_order_attributes
        ]
        engine.insert([row])
        assert engine.summary()["phase_seconds"]["query"] == before
        assert not engine.run_query(BatchQuery("base")).from_cache
        assert engine.summary()["phase_seconds"]["query"] > before
