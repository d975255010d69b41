"""Unit tests: BatchQueryEngine live mutations, caching and compaction."""

from __future__ import annotations

import pytest

from repro.api import pack
from repro.data.dataset import Dataset
from repro.data.schema import PartialOrderAttribute, Schema, TotalOrderAttribute
from repro.data.workloads import WorkloadSpec
from repro.engine.batch import BatchQuery, BatchQueryEngine, random_query_preferences
from repro.exceptions import QueryError, SchemaError
from repro.kernels import available_kernels
from repro.order.builders import chain
from tests.conftest import assert_backing


@pytest.fixture(scope="module")
def workload():
    spec = WorkloadSpec(
        name="mutation-test",
        cardinality=250,
        num_total_order=2,
        num_partial_order=1,
        dag_height=4,
        dag_density=0.8,
        to_domain_size=40,
        seed=13,
    )
    return spec.build()


def _dominant_row(dataset):
    """A row beating everything on the TO attributes (PO from record 0)."""
    row = list(dataset.records[0].values)
    row[0] = -1.0
    row[1] = -1.0
    return tuple(row)


@pytest.mark.usefixtures("frame_backing")
class TestMutationSemantics:
    def test_insert_allocates_fresh_ids_and_changes_results(self, workload):
        _, dataset = workload
        with BatchQueryEngine(dataset) as engine:
            before = engine.run_query(BatchQuery("base")).skyline_ids
            ids = engine.insert([_dominant_row(dataset)])
            assert ids == [len(dataset)]
            after = engine.run_query(BatchQuery("base")).skyline_ids
            assert ids[0] in after and after != before
            assert engine.mutations_applied == 1

    def test_insert_rejects_nan_and_changes_nothing(self, workload):
        _, dataset = workload
        with BatchQueryEngine(dataset) as engine:
            before = engine.run_query(BatchQuery("base")).skyline_ids
            row = list(_dominant_row(dataset))
            row[1] = float("nan")
            # The valid first row of the batch is not applied either.
            with pytest.raises(SchemaError, match="NaN"):
                engine.insert([_dominant_row(dataset), tuple(row)])
            assert engine.mutations_applied == 0
            assert engine.run_query(BatchQuery("base")).skyline_ids == before
            row[1] = float("-inf")
            (new_id,) = engine.insert([tuple(row)])
            # Nothing else reaches -inf, so nothing dominates it.
            assert new_id in engine.run_query(BatchQuery("base")).skyline_ids

    def test_delete_removes_and_reports_only_live_ids(self, workload):
        _, dataset = workload
        with BatchQueryEngine(dataset) as engine:
            base = engine.run_query(BatchQuery("base")).skyline_ids
            victim = base[0]
            assert engine.delete([victim, victim]) == [victim]
            assert victim not in engine.run_query(BatchQuery("base")).skyline_ids
            with pytest.raises(QueryError, match="unknown record id"):
                engine.delete([10**6])

    def test_result_cache_invalidated_on_mutation(self, workload):
        schema, dataset = workload
        with BatchQueryEngine(dataset) as engine:
            query = BatchQuery("q", dag_overrides=random_query_preferences(schema, 3))
            engine.run_query(query)
            assert engine.run_query(query).from_cache
            engine.insert([_dominant_row(dataset)])
            refreshed = engine.run_query(query)
            assert not refreshed.from_cache
            assert len(dataset) in refreshed.skyline_ids


#: Two TO attributes and a chain a > b: group a's front is (1, 1) and (3, 0),
#: group b's is (0, 9); (2, 2, a) and (1, 9, b) fall to the prefilter.
SMALL_SCHEMA = Schema(
    [
        TotalOrderAttribute("t0"),
        TotalOrderAttribute("t1"),
        PartialOrderAttribute("p0", chain(["a", "b"])),
    ]
)
SMALL_ROWS = [(1, 1, "a"), (2, 2, "a"), (3, 0, "a"), (0, 9, "b"), (1, 9, "b")]


@pytest.mark.usefixtures("frame_backing")
@pytest.mark.parametrize("kernel", available_kernels())
class TestCandidateSetAndCache:
    """Mutations update the per-group fronts at write time; a query reads them
    the same way whether or not the data changed, and the result cache is
    dropped only when a front changed."""

    def _engine(self, kernel, frame_backing):
        engine = BatchQueryEngine(
            Dataset(SMALL_SCHEMA, SMALL_ROWS), kernel=kernel, compact_threshold=0
        )
        assert_backing(engine._delta.base, frame_backing)
        return engine

    def test_dominating_insert_evicts_front_rows(self, kernel, frame_backing):
        with self._engine(kernel, frame_backing) as engine:
            assert engine._candidate_ids == [0, 2, 3]
            (new_id,) = engine.insert([(0, 0, "a")])
            assert engine._candidate_ids == [3, new_id]
            assert engine.run_query(BatchQuery("base")).skyline_ids == [new_id]

    def test_duplicate_of_a_front_row_joins(self, kernel, frame_backing):
        with self._engine(kernel, frame_backing) as engine:
            before = engine.run_query(BatchQuery("base")).skyline_ids
            (new_id,) = engine.insert([(1, 1, "a")])
            assert new_id in engine._candidate_ids
            result = engine.run_query(BatchQuery("base"))
            assert not result.from_cache
            assert result.skyline_ids == sorted(before + [new_id])

    def test_dominated_insert_keeps_the_cache(self, kernel, frame_backing):
        with self._engine(kernel, frame_backing) as engine:
            first = engine.run_query(BatchQuery("base"))
            (new_id,) = engine.insert([(2, 2, "a")])
            assert new_id not in engine._candidate_ids
            again = engine.run_query(BatchQuery("base"))
            assert again.from_cache and again.skyline_ids == first.skyline_ids

    def test_deleting_an_evicting_insert_brings_base_rows_back(
        self, kernel, frame_backing
    ):
        with self._engine(kernel, frame_backing) as engine:
            before = engine.run_query(BatchQuery("base")).skyline_ids
            (new_id,) = engine.insert([(0, 0, "a")])
            assert engine.run_query(BatchQuery("base")).skyline_ids == [new_id]
            assert engine.delete([new_id]) == [new_id]
            assert engine._candidate_ids == [0, 2, 3]
            result = engine.run_query(BatchQuery("base"))
            assert not result.from_cache and result.skyline_ids == before

    def test_deleting_a_non_candidate_keeps_the_cache(self, kernel, frame_backing):
        with self._engine(kernel, frame_backing) as engine:
            first = engine.run_query(BatchQuery("base"))
            (new_id,) = engine.insert([(2, 9, "b")])  # dominated in its group
            assert engine.run_query(BatchQuery("base")).from_cache
            # A prefiltered base row, then the dominated insert.
            assert engine.delete([1]) == [1]
            assert engine.delete([new_id]) == [new_id]
            again = engine.run_query(BatchQuery("base"))
            assert again.from_cache and again.skyline_ids == first.skyline_ids


@pytest.mark.usefixtures("frame_backing")
class TestCompaction:
    def test_compact_is_noop_without_mutations(self, workload):
        _, dataset = workload
        with BatchQueryEngine(dataset) as engine:
            summary = engine.compact()
            assert summary["compacted"] is False
            assert engine.compactions == 0

    def test_explicit_compact_preserves_results_and_ids(self, workload, frame_backing):
        schema, dataset = workload
        with BatchQueryEngine(dataset) as engine:
            assert_backing(engine._delta.base, frame_backing)
            new_id = engine.insert([_dominant_row(dataset)])[0]
            engine.delete([0, 1])
            before = engine.run_query(BatchQuery("base")).skyline_ids
            summary = engine.compact()
            assert summary["compacted"] is True
            assert summary["rows"] == len(dataset) - 1  # +1 insert, -2 deletes
            assert engine.run_query(BatchQuery("base")).skyline_ids == before
            assert engine.summary()["delta"] is None
            assert_backing(engine._delta.base, frame_backing)
            # Stable ids survive the fold: the insert keeps its id, and
            # further mutations see it.
            assert engine.delete([new_id]) == [new_id]

    def test_threshold_triggers_auto_compaction(self, workload):
        _, dataset = workload
        with BatchQueryEngine(dataset, compact_threshold=3) as engine:
            engine.insert([_dominant_row(dataset)])
            engine.delete([0])
            assert engine.compactions == 0
            engine.delete([1])  # third mutation crosses the threshold
            assert engine.compactions == 1
            assert engine.summary()["delta"] is None

    def test_zero_threshold_disables_auto_compaction(self, workload):
        _, dataset = workload
        with BatchQueryEngine(dataset, compact_threshold=0) as engine:
            for record_id in range(10):
                engine.delete([record_id])
            assert engine.compactions == 0
            assert engine.summary()["delta"]["pending_mutations"] == 10


class TestStoreBackedMutations:
    def test_mutations_persist_via_delta_log(self, workload, tmp_path):
        _, dataset = workload
        path = str(tmp_path / "catalog.rpro")
        pack(dataset, path)
        with BatchQueryEngine(path, compact_threshold=0) as engine:
            new_id = engine.insert([_dominant_row(dataset)])[0]
            engine.delete([0])
            expected = engine.run_query(BatchQuery("base")).skyline_ids
        with BatchQueryEngine(path, compact_threshold=0) as reopened:
            assert reopened.summary()["delta"]["pending_mutations"] == 2
            assert reopened.run_query(BatchQuery("base")).skyline_ids == expected
            assert new_id in reopened.run_query(BatchQuery("base")).skyline_ids

    def test_compaction_rewrites_store_and_resets_log(self, workload, tmp_path):
        _, dataset = workload
        path = str(tmp_path / "catalog.rpro")
        pack(dataset, path)
        with BatchQueryEngine(path, compact_threshold=0) as engine:
            engine.insert([_dominant_row(dataset)])
            engine.delete([0])
            expected = engine.run_query(BatchQuery("base")).skyline_ids
            summary = engine.compact()
            assert summary["compacted"] is True and summary["generation"] == 1
            assert engine.run_query(BatchQuery("base")).skyline_ids == expected
        with BatchQueryEngine(path) as reopened:
            assert reopened.summary()["delta"] is None
            assert reopened.summary()["store"]["generation"] == 1
            assert reopened.run_query(BatchQuery("base")).skyline_ids == expected

    def test_summary_reports_delta_state(self, workload, tmp_path):
        _, dataset = workload
        path = str(tmp_path / "catalog.rpro")
        pack(dataset, path)
        with BatchQueryEngine(path, compact_threshold=0) as engine:
            engine.insert([_dominant_row(dataset)])
            delta = engine.summary()["delta"]
            assert delta["inserts"] == 1 and delta["live_inserts"] == 1
            assert delta["pending_mutations"] == 1
            assert delta["live_rows"] == len(dataset) + 1


def _open(source, tmp_path, store_backed):
    """An engine over ``source`` in memory, or over a packed copy of it."""
    if not store_backed:
        return BatchQueryEngine(source, compact_threshold=0)
    path = str(tmp_path / "catalog.rpro")
    pack(source, path)
    return BatchQueryEngine(path, compact_threshold=0)


@pytest.mark.parametrize("store_backed", [False, True], ids=["in-memory", "store"])
class TestIdsAcrossCompaction:
    """Compaction folds deleted ids away; they stay deleted, never reused."""

    def test_redeleting_folded_ids_is_a_noop(self, workload, tmp_path, store_backed):
        _, dataset = workload
        with _open(dataset, tmp_path, store_backed) as engine:
            (inserted,) = engine.insert([_dominant_row(dataset)])
            assert inserted == len(dataset)
            assert engine.delete([inserted, 5]) == [inserted, 5]
            engine.compact()
            assert engine.delete([inserted]) == []
            assert engine.delete([5]) == []
            # Ids at or above the allocation high-water mark were never handed out.
            with pytest.raises(QueryError, match="unknown record id"):
                engine.delete([inserted + 1])
            with pytest.raises(QueryError, match="unknown record id"):
                engine.delete([-1])

    def test_highest_id_is_not_reused(self, workload, tmp_path, store_backed):
        _, dataset = workload
        with _open(dataset, tmp_path, store_backed) as engine:
            (first,) = engine.insert([_dominant_row(dataset)])
            engine.delete([first])
            engine.compact()
            assert engine.insert([_dominant_row(dataset)]) == [first + 1]
            engine.delete([first + 1])
            engine.compact()
            store_path = engine.store.path if store_backed else None
        if store_backed:
            # The high-water mark is persisted in the compacted store.
            with BatchQueryEngine(store_path, compact_threshold=0) as reopened:
                assert reopened.store.next_id == first + 2
                assert reopened.delete([first + 1]) == []
                assert reopened.insert([_dominant_row(dataset)]) == [first + 2]
