"""Round-trip property tests for the storage plane.

The contract under test: ``pack_dataset`` followed by ``DatasetStore.open``
(mapped with NumPy, struct-unpacked without) reconstructs *exactly* the artifacts the engine would have
built from the records — same encoded columns, same prefilter survivors, and
query results that are identical to the in-memory path down to the discovery
order and the dominance-check counts, across both kernels and both frame
backings.  The sharded executor (no longer on the engine's query path) is
checked over the same packed file, in-process and from pool workers that
reopen it.
"""

from __future__ import annotations

import pytest

from repro.data.io import load_csv_dataset, save_csv_dataset
from repro.data.workloads import WorkloadSpec
from repro.engine.batch import (
    BatchQuery,
    BatchQueryEngine,
    queries_from_seeds,
    random_query_preferences,
)
from repro.kernels import available_kernels
from repro.parallel.executor import ShardedExecutor
from repro.skyline.bruteforce import brute_force_skyline
from repro.store import DatasetStore, pack_dataset
from repro.store.format import SectionSpec
from tests.conftest import assert_backing, frame_backing_of

np = pytest.importorskip("numpy", reason="store round-trip baseline uses numpy")


@pytest.fixture(scope="module")
def workload():
    spec = WorkloadSpec(
        name="store-roundtrip",
        cardinality=250,
        num_total_order=2,
        num_partial_order=2,
        dag_height=4,
        dag_density=0.8,
        to_domain_size=40,
        seed=13,
    )
    return spec.build()


@pytest.fixture(scope="module")
def packed(workload, tmp_path_factory):
    _, dataset = workload
    path = tmp_path_factory.mktemp("store") / "roundtrip.rpro"
    summary = pack_dataset(dataset, path)
    return path, summary


def _queries(schema):
    return [BatchQuery("base")] + queries_from_seeds(schema, range(20, 24))


def _run_executor(executor, schema):
    """(name, sorted skyline ids) per query through a sharded executor."""
    with executor:
        return [
            (query.name, sorted(executor.query(query.dag_overrides).skyline_ids))
            for query in _queries(schema)
        ]


def _run(engine, schema):
    """(name, skyline ids in discovery order, dominance checks) per query."""
    rows = []
    with engine:
        for result in engine.run(_queries(schema)):
            checks = result.stats.dominance_checks if result.stats else None
            rows.append((result.name, list(result.skyline_ids), checks))
    return rows


class TestBitwiseRoundTrip:
    def test_frame_arrays_survive_packing(self, workload, packed):
        from repro.data.columns import EncodedFrame

        _, dataset = workload
        path, _ = packed
        fresh = EncodedFrame.from_dataset(dataset)
        store = DatasetStore.open(path)
        mapped = store.frame()
        assert np.array_equal(mapped.to, fresh.to)
        assert np.array_equal(mapped.codes, fresh.codes)
        # Every header section entry is exactly what SectionSpec writes.
        for name, entry in store._header["sections"].items():
            assert SectionSpec.from_json(name, entry, path=str(path)).to_json() == entry

    def test_survivors_match_engine_prefilter(self, workload, packed):
        _, dataset = workload
        path, summary = packed
        with BatchQueryEngine(dataset) as engine:
            reference = engine._candidate_ids
        store = DatasetStore.open(path)
        assert store.survivors() == list(reference)
        assert summary["survivors"] == len(reference)

    def test_materialized_dataset_equals_original(self, workload, packed):
        schema, dataset = workload
        path, _ = packed
        restored = DatasetStore.open(path).dataset()
        assert len(restored) == len(dataset)
        for original, loaded in zip(dataset, restored):
            assert original.values == loaded.values

    @pytest.mark.parametrize("kernel_name", available_kernels())
    def test_results_identical_to_in_memory(
        self, workload, packed, kernel_name, frame_backing, tmp_path
    ):
        schema, dataset = workload
        path, _ = packed
        reference = _run(BatchQueryEngine(dataset, kernel=kernel_name), schema)
        engine = BatchQueryEngine(path, kernel=kernel_name)
        assert_backing(engine._frame, frame_backing)
        via_store = _run(engine, schema)
        assert via_store == reference  # ids, discovery order AND check counts
        # Ingesting the same rows from CSV answers the same too.
        csv_path = tmp_path / "roundtrip.csv"
        save_csv_dataset(dataset, csv_path)
        loaded = load_csv_dataset(csv_path, schema)
        assert _run(BatchQueryEngine(loaded, kernel=kernel_name), schema) == reference

    @pytest.mark.parametrize("num_shards", [1, 2, 3, 4])
    def test_sharded_store_executor_matches_in_memory(self, workload, packed, num_shards):
        schema, dataset = workload
        path, _ = packed
        store = DatasetStore.open(path)
        reference = _run_executor(ShardedExecutor(dataset, num_shards=num_shards), schema)
        via_store = _run_executor(
            ShardedExecutor(frame=store.frame(), store=store, num_shards=num_shards),
            schema,
        )
        assert via_store == reference

    def test_pooled_workers_map_the_store_file(self, workload, packed):
        schema, dataset = workload
        path, _ = packed
        store = DatasetStore.open(path)
        reference = _run(BatchQueryEngine(dataset), schema)
        via_store = _run_executor(
            ShardedExecutor(frame=store.frame(), store=store, workers=2, num_shards=2),
            schema,
        )
        assert via_store == [(n, sorted(ids)) for n, ids, _ in reference]

    def test_workers_store_engine_follows_mutations(self, workload, tmp_path):
        """A store engine opened with ``workers=2`` folds an insert that
        joins the candidates (and its delete) in-process, with no pool."""
        import multiprocessing

        from repro.api import open_dataset

        schema, dataset = workload
        path = tmp_path / "workers.rpro"
        pack_dataset(dataset, path)
        row = list(dataset.records[0].values)
        row[0] = row[1] = -1.0  # beats every row on the TO attributes
        with open_dataset(
            path, workers=2, compact_threshold=0
        ) as engine, BatchQueryEngine(dataset, compact_threshold=0) as reference:
            (new_id,) = engine.insert([tuple(row)])
            assert reference.insert([tuple(row)]) == [new_id]
            for query in _queries(schema):
                assert engine.run_query(query).skyline_ids == (
                    reference.run_query(query).skyline_ids
                )
            assert engine.delete([new_id]) == reference.delete([new_id])
            for query in _queries(schema):
                assert engine.run_query(query).skyline_ids == (
                    reference.run_query(query).skyline_ids
                )
            assert engine.executor is None
        assert multiprocessing.active_children() == []

    def test_store_engine_matches_brute_force(self, workload, packed):
        schema, dataset = workload
        path, _ = packed
        for name, ids, _ in _run(BatchQueryEngine(path), schema):
            effective = schema
            if name != "base":
                overrides = random_query_preferences(schema, int(name[1:]))
                effective = schema.replace_partial_order(overrides)
            truth = brute_force_skyline(dataset.with_schema(effective))
            assert ids == sorted(truth.skyline_ids), name

    def test_stored_row_ids_map_and_sort_the_skyline(self, workload, tmp_path):
        """Ids persisted in descending row order: each skyline row answers
        as its stored id, and the ids come back ascending."""
        from repro.data.columns import EncodedFrame
        from repro.store.writer import pack_frame

        schema, dataset = workload
        row_ids = [1000 - row for row in range(len(dataset))]
        path = tmp_path / "reversed.rpro"
        pack_frame(EncodedFrame.from_dataset(dataset), path, row_ids=row_ids)
        reference = _run(BatchQueryEngine(dataset), schema)
        via_store = _run(BatchQueryEngine(path), schema)
        for (name, ids, _), (_, rows, _) in zip(via_store, reference):
            assert ids == sorted(row_ids[row] for row in rows), name


class TestStoreFacts:
    def test_describe_reports_layout(self, packed):
        path, summary = packed
        store = DatasetStore.open(path)
        facts = store.describe()
        assert facts["format_version"] == 1
        assert facts["rows"] == summary["rows"]
        assert set(summary["sections"]) == set(facts["sections"])

    def test_mmap_follows_numpy(self, packed):
        path, _ = packed
        assert DatasetStore.open(path).uses_mmap is True
        with frame_backing_of("tuple"):
            assert DatasetStore.open(path).uses_mmap is False

    def test_engine_never_maps_or_indexes_base_queries(
        self, workload, packed, monkeypatch, frame_backing
    ):
        """A store-backed engine answers base and override queries by the
        group path: no TSS mapping, R-tree, sTSS or SFS run."""
        import repro.core.stss
        import repro.skyline.sfs
        from repro.core.mapping import TSSMapping

        schema, dataset = workload
        path, _ = packed
        queries = _queries(schema)
        with BatchQueryEngine(dataset) as engine:
            reference = [engine.run_query(query).skyline_ids for query in queries]

        def forbidden(*args, **kwargs):
            raise AssertionError("the engine mapped or indexed a base query")

        monkeypatch.setattr(TSSMapping, "__init__", forbidden)
        monkeypatch.setattr(TSSMapping, "build_rtree", forbidden)
        monkeypatch.setattr(repro.core.stss, "stss_skyline", forbidden)
        monkeypatch.setattr(repro.skyline.sfs, "sfs_skyline", forbidden)
        with BatchQueryEngine(path) as engine:
            assert_backing(engine._frame, frame_backing)
            answers = [engine.run_query(query).skyline_ids for query in queries]
        assert answers == reference
