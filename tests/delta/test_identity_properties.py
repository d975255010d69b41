"""Property suite: delta-merged results are bitwise-identical to a rebuild.

The delta plane's contract: after ANY interleaving of inserts and deletes,
a query through the mutated engine returns exactly — same ids, same order —
what a fresh engine built from scratch over the live rows returns.  Pinned
here across random mutation sequences, both frame backings, 1-4 shards,
both kernels and (in the store matrix) packed stores read through either
backing, including sequences that cross the auto-compaction threshold.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import pack
from repro.data.dataset import Dataset
from repro.data.workloads import WorkloadSpec
from repro.engine.batch import BatchQuery, BatchQueryEngine, random_query_preferences
from repro.kernels import available_kernels
from tests.conftest import (
    FRAME_BACKINGS,
    assert_backing,
    frame_backing_of,
    mixed_dataset_strategy,
)

KERNELS = available_kernels()


def _random_row(schema, rng):
    dags = [a.dag for a in schema.partial_order_attributes]
    return tuple(rng.randint(0, 8) for _ in range(schema.num_total_order)) + tuple(
        rng.choice(dag.values) for dag in dags
    )


def _mutate_and_check(engine, schema, live, rng, steps, queries, rebuild_options):
    """Apply random mutations; after each, compare against a fresh rebuild.

    ``live`` maps stable id -> row values and is updated in place.
    """
    for _ in range(steps):
        if rng.random() < 0.55 or not live:
            row = _random_row(schema, rng)
            (new_id,) = engine.insert([row])
            live[new_id] = row
        else:
            victim = rng.choice(sorted(live))
            assert engine.delete([victim]) == [victim]
            del live[victim]
        if not live:
            continue
        ordered_ids = sorted(live)
        reference_data = Dataset(schema, [live[i] for i in ordered_ids])
        with BatchQueryEngine(reference_data, **rebuild_options) as reference:
            for query in queries:
                merged = engine.run_query(query).skyline_ids
                rebuilt = reference.run_query(query).skyline_ids
                assert merged == [ordered_ids[p] for p in rebuilt], query.name


class TestDeltaEqualsRebuild:
    @pytest.mark.parametrize("backing", FRAME_BACKINGS)
    @given(
        dataset=mixed_dataset_strategy(max_rows=20),
        kernel=st.sampled_from(KERNELS),
        num_shards=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=25, deadline=None)
    def test_in_memory(self, backing, dataset, kernel, num_shards, seed):
        rng = random.Random(seed)
        options = dict(
            kernel=kernel,
            workers=0,
            num_shards=num_shards if num_shards > 1 else None,
            compact_threshold=0,
        )
        queries = [
            BatchQuery("base"),
            BatchQuery(
                "q", dag_overrides=random_query_preferences(dataset.schema, seed % 97)
            ),
        ]
        live = {record.id: tuple(record.values) for record in dataset.records}
        with frame_backing_of(backing), BatchQueryEngine(dataset, **options) as engine:
            _mutate_and_check(engine, dataset.schema, live, rng, 6, queries, options)

    @given(
        dataset=mixed_dataset_strategy(max_rows=20),
        kernel=st.sampled_from(KERNELS),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=10, deadline=None)
    def test_compaction_mid_sequence(self, dataset, kernel, seed):
        """Crossing a compaction keeps the contract on both sides of the fold."""
        rng = random.Random(seed)
        options = dict(kernel=kernel, compact_threshold=0)
        queries = [BatchQuery("base")]
        live = {record.id: tuple(record.values) for record in dataset.records}
        with BatchQueryEngine(dataset, **options) as engine:
            _mutate_and_check(engine, dataset.schema, live, rng, 3, queries, options)
            engine.compact()
            _mutate_and_check(engine, dataset.schema, live, rng, 3, queries, options)


class TestStoreBackedDeltaEqualsRebuild:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_store_matrix(self, tmp_path, frame_backing, seed):
        spec = WorkloadSpec(
            name="delta-prop",
            cardinality=120,
            num_total_order=2,
            num_partial_order=1,
            dag_height=3,
            dag_density=0.8,
            to_domain_size=25,
            seed=seed,
        )
        schema, dataset = spec.build()
        path = str(tmp_path / "catalog.rpro")
        pack(dataset, path)
        rng = random.Random(seed * 31)
        queries = [
            BatchQuery("base"),
            BatchQuery("q", dag_overrides=random_query_preferences(schema, seed)),
        ]
        live = {record.id: tuple(record.values) for record in dataset.records}
        # Threshold of 9 makes the 14-step schedule cross one compaction.
        options = dict(compact_threshold=9)
        with BatchQueryEngine(path, **options) as engine:
            assert_backing(engine._frame, frame_backing)
            _mutate_and_check(engine, schema, live, rng, 14, queries, {})
            assert engine.compactions >= 1
            assert_backing(engine._frame, frame_backing)  # the reopened store
            expected = {q.name: engine.run_query(q).skyline_ids for q in queries}
        # A reopen (log replay over the compacted base) answers identically.
        with BatchQueryEngine(path, **options) as reopened:
            for query in queries:
                assert reopened.run_query(query).skyline_ids == expected[query.name]
