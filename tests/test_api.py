"""The public facade: repro.open_dataset / repro.pack over every source kind."""

from __future__ import annotations

import pytest

import repro
from repro.config import STORE_ENV_VAR, RuntimeConfig
from repro.engine.batch import BatchQueryEngine
from repro.exceptions import ExperimentError


@pytest.fixture(scope="module")
def workload():
    from repro.data.workloads import WorkloadSpec

    spec = WorkloadSpec(
        name="api-facade",
        cardinality=150,
        num_total_order=2,
        num_partial_order=1,
        dag_height=3,
        dag_density=0.8,
        to_domain_size=25,
        seed=4,
    )
    return spec.build()


@pytest.fixture(scope="module")
def store_path(workload, tmp_path_factory):
    _, dataset = workload
    path = tmp_path_factory.mktemp("api") / "facade.rpro"
    repro.pack(dataset, path)
    return path


def _base_ids(engine):
    with engine:
        return engine.run_query(repro.BatchQuery("base")).skyline_ids


class TestOpenDataset:
    def test_accepts_dataset(self, workload):
        _, dataset = workload
        engine = repro.open_dataset(dataset)
        assert isinstance(engine, BatchQueryEngine)
        assert _base_ids(engine)

    def test_accepts_path_and_matches_dataset(self, workload, store_path):
        _, dataset = workload
        assert _base_ids(repro.open_dataset(store_path)) == _base_ids(
            repro.open_dataset(dataset)
        )

    def test_accepts_open_store(self, workload, store_path):
        _, dataset = workload
        store = repro.DatasetStore.open(store_path)
        assert _base_ids(repro.open_dataset(store)) == _base_ids(
            repro.open_dataset(dataset)
        )

    def test_no_source_uses_env_store(self, store_path, monkeypatch):
        monkeypatch.setenv(STORE_ENV_VAR, str(store_path))
        engine = repro.open_dataset()
        assert engine.store is not None
        assert engine.store.path == str(store_path)
        engine.close()

    def test_no_source_and_no_store_is_an_error(self, monkeypatch):
        monkeypatch.delenv(STORE_ENV_VAR, raising=False)
        with pytest.raises(ExperimentError, match="REPRO_STORE"):
            repro.open_dataset()

    def test_config_and_overrides_reach_the_engine(self, store_path):
        config = RuntimeConfig.resolve(shards=2, compact_threshold=5)
        engine = repro.open_dataset(store_path, config=config, workers=0)
        with engine:
            assert engine.summary()["compact_threshold"] == 5
            assert engine.executor is not None
            assert engine.executor.num_shards == 2

    def test_exported_from_package_root(self):
        for name in ("open_dataset", "pack", "RuntimeConfig", "DatasetStore",
                     "StoreError", "pack_dataset"):
            assert name in repro.__all__
            assert getattr(repro, name) is not None


class TestPack:
    def test_pack_reports_layout(self, workload, tmp_path):
        _, dataset = workload
        summary = repro.pack(dataset, tmp_path / "p.rpro", max_entries=8)
        assert summary["rows"] == len(dataset)
        assert summary["base"]["max_entries"] == 8
        assert (tmp_path / "p.rpro").stat().st_size == summary["bytes"]

    def test_pack_honours_config_kernel(self, workload, tmp_path):
        _, dataset = workload
        config = RuntimeConfig.resolve(kernel="purepython")
        summary = repro.pack(dataset, tmp_path / "pp.rpro", config=config)
        ids = _base_ids(repro.open_dataset(tmp_path / "pp.rpro"))
        assert summary["survivors"] >= len(ids) > 0
