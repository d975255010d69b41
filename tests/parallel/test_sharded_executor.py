"""Property and integration tests for the sharded executor.

The load-bearing property: for *any* dataset, *any* preference DAG topology,
*any* shard count and *either* partitioner, the partition → local skyline →
cross-shard sort-merge pipeline returns exactly the single-process sTSS
skyline.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import resolve_workers
from repro.core.stss import stss_skyline
from repro.data.dataset import Dataset
from repro.data.schema import Schema, TotalOrderAttribute
from repro.engine.batch import random_query_preferences
from repro.exceptions import ExperimentError, QueryError
from repro.kernels import available_kernels
from repro.parallel import ShardedExecutor
from repro.skyline.sfs import sfs_skyline
from tests.conftest import mixed_dataset_strategy


class TestShardedMatchesSingleProcess:
    """The hypothesis matrix of the acceptance criteria."""

    @given(
        dataset=mixed_dataset_strategy(max_rows=40),
        num_shards=st.integers(min_value=1, max_value=8),
        partitioner=st.sampled_from(["round-robin", "po-group"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_base_preferences(self, dataset, num_shards, partitioner):
        reference = sorted(stss_skyline(dataset).skyline_ids)
        executor = ShardedExecutor(
            dataset,
            num_shards=num_shards,
            workers=0,
            partitioner=partitioner,
        )
        assert executor.query().skyline_ids == reference

    @given(
        dataset=mixed_dataset_strategy(max_rows=30),
        query_seed=st.integers(min_value=0, max_value=10_000),
        num_shards=st.integers(min_value=1, max_value=8),
        partitioner=st.sampled_from(["round-robin", "po-group"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_dynamic_preference_overrides(self, dataset, query_seed, num_shards, partitioner):
        schema = dataset.schema
        # Random preferences re-drawn over each attribute's own domain
        # (dynamic queries re-rank a domain, they do not change it).
        overrides = random_query_preferences(schema, query_seed)
        reference = sorted(
            stss_skyline(
                dataset.with_schema(schema.replace_partial_order(overrides))
            ).skyline_ids
        )
        executor = ShardedExecutor(
            dataset,
            num_shards=num_shards,
            workers=0,
            partitioner=partitioner,
        )
        assert executor.query(overrides).skyline_ids == reference

    @pytest.mark.parametrize("kernel_name", available_kernels())
    @pytest.mark.parametrize("partitioner", ["round-robin", "po-group"])
    def test_workload_all_kernels(self, small_anticorrelated_workload, kernel_name, partitioner):
        schema, dataset = small_anticorrelated_workload
        reference = sorted(stss_skyline(dataset, kernel=kernel_name).skyline_ids)
        executor = ShardedExecutor(
            dataset, num_shards=5, workers=0, partitioner=partitioner, kernel=kernel_name
        )
        result = executor.query()
        assert result.skyline_ids == reference
        assert sum(result.local_skyline_sizes) >= len(reference)

    def test_to_only_schema_uses_sfs(self):
        schema = Schema([TotalOrderAttribute("x"), TotalOrderAttribute("y")])
        rows = [(i % 7, (3 * i + 1) % 5) for i in range(40)]
        dataset = Dataset(schema, rows)
        reference = sorted(sfs_skyline(dataset).skyline_ids)
        for partitioner in ("round-robin", "po-group"):
            executor = ShardedExecutor(
                dataset, num_shards=4, workers=0, partitioner=partitioner
            )
            assert executor.query().skyline_ids == reference

    def test_empty_shards_are_harmless(self, small_workload):
        _, dataset = small_workload
        tiny = dataset.subset([0, 1])
        reference = sorted(stss_skyline(tiny).skyline_ids)
        executor = ShardedExecutor(tiny, num_shards=6, workers=0)
        assert executor.query().skyline_ids == reference


class TestWorkerPool:
    """The multiprocessing path must agree with the in-process path."""

    def test_pool_matches_inline(self, small_workload):
        schema, dataset = small_workload
        inline = ShardedExecutor(dataset, num_shards=4, workers=0)
        overrides = random_query_preferences(schema, 3)
        with ShardedExecutor(dataset, num_shards=4, workers=2) as pooled:
            assert pooled.query().skyline_ids == inline.query().skyline_ids
            assert (
                pooled.query(overrides).skyline_ids
                == inline.query(overrides).skyline_ids
            )
            assert pooled.summary()["pool_running"]
        assert not pooled.summary()["pool_running"]

    def test_close_is_idempotent(self, small_workload):
        _, dataset = small_workload
        executor = ShardedExecutor(dataset, num_shards=2, workers=1)
        executor.start()
        executor.close()
        executor.close()

    def test_per_query_state_reused_across_queries(self, small_workload):
        schema, dataset = small_workload
        with ShardedExecutor(dataset, num_shards=2, workers=1) as executor:
            first = executor.query(random_query_preferences(schema, 5))
            second = executor.query(random_query_preferences(schema, 5))
            assert first.skyline_ids == second.skyline_ids
            assert executor.queries_answered == 2


class TestValidationAndAccounting:
    def test_unknown_override_attribute_rejected(self, small_workload):
        _, dataset = small_workload
        executor = ShardedExecutor(dataset, num_shards=2, workers=0)
        with pytest.raises(QueryError):
            executor.query({"nope": dataset.schema.partial_order_attributes[0].dag})

    def test_domain_shrinking_override_rejected(self, small_workload):
        from repro.order.dag import PartialOrderDAG

        _, dataset = small_workload
        attribute = dataset.schema.partial_order_attributes[0]
        shrunk = PartialOrderDAG(list(attribute.domain)[:-1], [])
        executor = ShardedExecutor(dataset, num_shards=2, workers=0)
        with pytest.raises(QueryError):
            executor.query({attribute.name: shrunk})

    def test_bad_shard_count_rejected(self, small_workload):
        _, dataset = small_workload
        with pytest.raises(QueryError):
            ShardedExecutor(dataset, num_shards=0, workers=0)

    def test_result_accounting(self, small_workload):
        _, dataset = small_workload
        executor = ShardedExecutor(dataset, num_shards=3, workers=0)
        result = executor.query()
        assert result.seconds >= result.seconds_local >= 0
        assert result.seconds >= result.seconds_merge >= 0
        assert len(result.local_skyline_sizes) == 3
        assert result.merge_batches > 0
        assert result.merge_checks > 0
        assert result.local_window[1] >= result.local_window[0]

    def test_summary_shape(self, small_workload):
        _, dataset = small_workload
        executor = ShardedExecutor(dataset, num_shards=2, workers=0, partitioner="po-group")
        executor.query()
        summary = executor.summary()
        assert summary["num_shards"] == 2
        assert summary["partitioner"] == "po-group"
        assert summary["queries_answered"] == 1
        assert sum(summary["shard_sizes"]) == len(dataset)


class TestSortMerge:
    def test_work_below_a_shard_pair_sweep(self):
        # The asymptotic win (stream x skyline instead of the shard-pair
        # sweep's local-skyline products) needs local skylines well past one
        # merge chunk; a 6k-tuple anticorrelated workload gets there while
        # staying fast.
        from repro.data.workloads import WorkloadSpec

        _, dataset = WorkloadSpec(
            name="merge-ab",
            distribution="anticorrelated",
            cardinality=6000,
            num_total_order=3,
            num_partial_order=1,
            dag_height=5,
            dag_density=0.8,
            seed=3,
        ).build()
        executor = ShardedExecutor(dataset, num_shards=4, workers=0)
        result = executor.query()
        assert result.skyline_ids == sorted(stss_skyline(dataset).skyline_ids)
        sizes = result.local_skyline_sizes
        pair_sweep = sum(a * b for i, a in enumerate(sizes) for j, b in enumerate(sizes) if i != j)
        assert result.merge_checks < pair_sweep

    def test_phase_split_composes_to_query(self, small_workload):
        """local_phase + merge_phase is exactly what query() computes."""
        schema, dataset = small_workload
        executor = ShardedExecutor(dataset, num_shards=4, workers=0)
        overrides = random_query_preferences(schema, 13)
        local_ids = executor.local_phase(overrides)
        assert len(local_ids) == 4
        merged, batches = executor.merge_phase(local_ids, overrides)
        assert merged == executor.query(overrides).skyline_ids
        assert batches >= 0

    def test_sort_merge_survives_float_key_ties(self):
        """Regression: float summation can tie a dominator's sort key with
        its victim's (1e16 + 1.0 == 1e16), so the strictly-smaller-key
        invariant degrades to smaller-or-equal.  A key-tie run must never be
        split across merge chunks, or an equal-key dominator in the next
        chunk silently lets its victim survive.  (Ground truth comes from
        brute force: SFS's precedence property rests on the same strict-key
        assumption, so in this corner the cross-examining merge is *more*
        correct than a single SFS pass.)
        """
        from repro.skyline.bruteforce import brute_force_skyline

        schema = Schema([TotalOrderAttribute("x"), TotalOrderAttribute("y")])
        victim = (1e16, 1.0)  # id 0, shard 0 — key rounds to 1e16
        # 255 pairwise-incomparable fillers (better x, worse y than the tie
        # pair) whose keys sort strictly before 1e16, pushing the victim to
        # the last slot of the first 256-record merge chunk.
        fillers = [(1e16 - 4.0 * (index + 1), 2.0 + index) for index in range(255)]
        dominator = (1e16, 0.0)  # id 256 -> shard 1 of 3, key ties the victim's
        dataset = Dataset(schema, [victim, *fillers, dominator])
        truth = sorted(brute_force_skyline(dataset).skyline_ids)
        assert 0 not in truth  # the dominator kills the victim
        executor = ShardedExecutor(dataset, num_shards=3, workers=0)
        # The victim's shard does not hold its dominator, so the victim
        # reaches the merge phase and must be killed there.
        local_ids = executor.local_phase({})
        assert any(0 in ids for ids in local_ids)
        merged, _ = executor.merge_phase(local_ids, {})
        assert merged == truth

    def test_concurrent_queries_agree_with_serial(self, small_workload):
        import threading

        schema, dataset = small_workload
        executor = ShardedExecutor(dataset, num_shards=3, workers=0)
        seeds = list(range(60, 68))
        serial = {seed: executor.query(random_query_preferences(schema, seed)).skyline_ids for seed in seeds}
        errors: list[BaseException] = []

        def client(seed: int) -> None:
            try:
                result = executor.query(random_query_preferences(schema, seed))
                assert result.skyline_ids == serial[seed]
            except BaseException as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=client, args=(seed,)) for seed in seeds]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert executor.queries_answered == 2 * len(seeds)


class TestResolveWorkers:
    def test_explicit_value_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert resolve_workers(2) == 2
        assert resolve_workers("3") == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert resolve_workers(None) == 4
        monkeypatch.delenv("REPRO_WORKERS")
        assert resolve_workers(None) == 0

    @pytest.mark.parametrize("bad", ["nope", "-1", -3])
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ExperimentError):
            resolve_workers(bad)

    @pytest.mark.parametrize("bad", ["nope", "-2", "1.5"])
    def test_invalid_env_value_names_the_variable(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_WORKERS", bad)
        with pytest.raises(ExperimentError, match="REPRO_WORKERS"):
            resolve_workers(None)


class TestColumnarShardShipping:
    """Workers receive column blocks — never ``Record`` objects."""

    @staticmethod
    def _assert_no_records(payload) -> bytes:
        """Pickle ``payload`` while asserting no Record/Dataset is reached."""
        import io
        import pickle

        from repro.data.dataset import Record

        class GuardPickler(pickle.Pickler):
            def persistent_id(self, obj):
                assert not isinstance(obj, Record), "a Record reached the wire"
                assert not isinstance(obj, Dataset), "a Dataset reached the wire"
                return None

        buffer = io.BytesIO()
        GuardPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(payload)
        return buffer.getvalue()

    def test_worker_payload_contains_no_record_objects(self, small_workload):
        _, dataset = small_workload
        executor = ShardedExecutor(dataset, num_shards=4, workers=2)
        for worker in range(executor.workers):
            owned = [
                index
                for index in range(executor.num_shards)
                if index % executor.workers == worker
            ]
            self._assert_no_records(executor._worker_initargs(owned))

    def test_mismatched_frame_rejected(self, small_workload):
        from repro.data.columns import EncodedFrame

        _, dataset = small_workload
        frame = EncodedFrame.from_dataset(dataset).take([0, 1, 2])
        with pytest.raises(QueryError, match="rows"):
            ShardedExecutor(dataset, num_shards=2, frame=frame)
