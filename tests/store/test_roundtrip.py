"""Round-trip property tests for the storage plane.

The contract under test: ``pack_dataset`` followed by ``DatasetStore.open``
(mapped with NumPy, struct-unpacked without) reconstructs *exactly* the artifacts the engine would have
built from the records — same encoded columns, same prefilter survivors, and
query results that are identical to the in-memory path down to the discovery
order and the dominance-check counts, across both kernels, both frame
backings and 1–4 shards.
"""

from __future__ import annotations

import pytest

from repro.data.workloads import WorkloadSpec
from repro.engine.batch import BatchQuery, BatchQueryEngine, queries_from_seeds
from repro.kernels import available_kernels
from repro.store import DatasetStore, pack_dataset
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
        self, workload, packed, kernel_name, frame_backing
    ):
        schema, dataset = workload
        path, _ = packed
        reference = _run(BatchQueryEngine(dataset, kernel=kernel_name), schema)
        engine = BatchQueryEngine(path, kernel=kernel_name)
        assert_backing(engine._frame, frame_backing)
        via_store = _run(engine, schema)
        assert via_store == reference  # ids, discovery order AND check counts

    @pytest.mark.parametrize("num_shards", [1, 2, 3, 4])
    def test_sharded_store_engine_matches_in_memory(self, workload, packed, num_shards):
        schema, dataset = workload
        path, _ = packed
        reference = _run(
            BatchQueryEngine(dataset, workers=0, num_shards=num_shards), schema
        )
        via_store = _run(
            BatchQueryEngine(path, workers=0, num_shards=num_shards), schema
        )
        assert [(n, ids) for n, ids, _ in via_store] == [
            (n, ids) for n, ids, _ in reference
        ]

    def test_pooled_workers_map_the_store_file(self, workload, packed):
        schema, dataset = workload
        path, _ = packed
        reference = _run(BatchQueryEngine(dataset), schema)
        via_store = _run(BatchQueryEngine(path, workers=2, num_shards=2), schema)
        assert [(n, sorted(ids)) for n, ids, _ in via_store] == [
            (n, sorted(ids)) for n, ids, _ in reference
        ]

    def test_prefilter_off_still_loads_from_store(self, workload, packed):
        schema, dataset = workload
        path, _ = packed
        reference = _run(BatchQueryEngine(dataset, prefilter=False), schema)
        via_store = _run(BatchQueryEngine(path, prefilter=False), schema)
        assert via_store == reference


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

    def test_base_artifacts_reused_without_rebuild(self, workload, packed):
        """The packed base mapping/tree answer the base query verbatim."""
        schema, dataset = workload
        path, _ = packed
        with BatchQueryEngine(dataset) as engine:
            reference = engine.run_query(BatchQuery("base"))
        with BatchQueryEngine(path) as engine:
            assert engine._store_base_usable
            result = engine.run_query(BatchQuery("base"))
            assert engine._base_artifacts is not None  # served from the file
        assert result.skyline_ids == reference.skyline_ids
        assert result.stats.dominance_checks == reference.stats.dominance_checks

    def test_engine_adopts_the_packed_flat_tree(self, packed, monkeypatch):
        """With NumPy the engine maps the store, queries through ``flat`` and
        serves the base query from the packed tree — no rebuild."""
        from repro.core.mapping import TSSMapping
        from repro.index.flat import FlatRTree

        def no_rebuild(*args, **kwargs):
            raise AssertionError("the packed flat tree was rebuilt")

        monkeypatch.setattr(TSSMapping, "build_rtree", no_rebuild)
        path, _ = packed
        with BatchQueryEngine(path) as engine:
            assert engine.summary()["index"] == "flat"
            assert engine.store.uses_mmap
            engine.run_query(BatchQuery("base"))
            _, tree = engine._base_artifacts
        assert isinstance(tree, FlatRTree)
