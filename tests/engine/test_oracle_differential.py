"""Differential check: the batch engine against the definition-based oracle.

The engine answers every query in-process by the group path; what varies
is the frame backing, the kernel backend and whether the base comes from a
packed store (closed and reopened between queries, so pending mutations
replay from the sidecar log).  For random mixed TO/PO datasets, random
preference overrides and random insert/delete/compact sequences, every such
configuration must answer each query with exactly the skyline
:func:`brute_force_skyline` computes over the live rows under the query's
effective schema, and after every step the engine's TO-dominance graph must
equal that of an engine opened fresh over the live rows.  One more case
opens a packed |TO|=3 store with ``workers=2``, the way the batch-sharded
benchmark workload does.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import open_dataset
from repro.data.dataset import Dataset
from repro.data.workloads import WorkloadSpec
from repro.engine.batch import BatchQuery, BatchQueryEngine
from repro.kernels import available_kernels
from repro.order.dag import PartialOrderDAG
from repro.skyline.bruteforce import brute_force_skyline
from repro.store import pack_dataset
from tests.conftest import FRAME_BACKINGS, frame_backing_of, mixed_dataset_strategy


def _random_overrides(schema, rng: random.Random) -> dict[str, PartialOrderDAG]:
    """A random DAG over each PO attribute's own domain (a random ranking
    plus forward edges, so acyclic by construction)."""
    overrides = {}
    for attribute in schema.partial_order_attributes:
        values = list(attribute.dag.values)
        ranking = values[:]
        rng.shuffle(ranking)
        probability = rng.random() * 0.9
        edges = [
            (ranking[i], ranking[j])
            for i in range(len(ranking))
            for j in range(i + 1, len(ranking))
            if rng.random() < probability
        ]
        overrides[attribute.name] = PartialOrderDAG(values, edges)
    return overrides


def _random_row(schema, rng: random.Random) -> tuple:
    return tuple(rng.randint(0, 8) for _ in range(schema.num_total_order)) + tuple(
        rng.choice(attribute.dag.values) for attribute in schema.partial_order_attributes
    )


def _oracle(schema, live: dict[int, tuple], query: BatchQuery) -> list[int]:
    """Sorted stable ids of the brute-force skyline over the live rows."""
    effective = (
        schema.replace_partial_order(dict(query.dag_overrides))
        if query.dag_overrides
        else schema
    )
    ids = sorted(live)
    rows = Dataset(effective, [live[record_id] for record_id in ids])
    return sorted(ids[position] for position in brute_force_skyline(rows).skyline_ids)


def _graph_pairs(engine, ids) -> set[tuple[int, int]] | None:
    """The engine's TO-dominance graph as pairs of ``ids[frame row]``
    (``None`` on the level path)."""
    graph = engine._graph
    if graph is None:
        return None
    rows = [ids(row) for row in graph.rows]
    return {(rows[int(src)], rows[int(dst)]) for src, dst in zip(graph.pairs.src, graph.pairs.dst)}


def _assert_matches_oracle(engine, schema, live, queries) -> None:
    for query in queries:
        assert engine.run_query(query).skyline_ids == _oracle(schema, live, query), query.name
    # The graph holds exactly the pairs of the current candidates: those of
    # an engine opened fresh over the live rows.
    ids = sorted(live)
    fresh = BatchQueryEngine(
        Dataset(schema, [live[record_id] for record_id in ids]), kernel=engine.kernel
    )
    assert _graph_pairs(engine, engine._delta.stable_id_of_row) == _graph_pairs(
        fresh, ids.__getitem__
    )


@pytest.mark.parametrize("backing", FRAME_BACKINGS)
@given(
    dataset=mixed_dataset_strategy(max_rows=20, min_to=0),
    kernel=st.sampled_from(available_kernels()),
    seed=st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=40, deadline=None)
def test_engine_matches_brute_force_over_live_rows(backing, dataset, kernel, seed):
    rng = random.Random(seed)
    schema = dataset.schema
    queries = [BatchQuery("base")] + [
        BatchQuery(f"q{index}", _random_overrides(schema, rng)) for index in range(2)
    ]
    live = {record.id: tuple(record.values) for record in dataset.records}
    with frame_backing_of(backing), BatchQueryEngine(
        dataset, kernel=kernel, compact_threshold=0
    ) as engine:
        _assert_matches_oracle(engine, schema, live, queries)
        for _ in range(6):
            _mutate(engine, schema, live, rng)
            if live:
                _assert_matches_oracle(engine, schema, live, queries)


def _mutate(engine, schema, live: dict[int, tuple], rng: random.Random) -> None:
    """One random insert, delete or compaction, mirrored into ``live``."""
    roll = rng.random()
    if roll < 0.45 or not live:
        row = _random_row(schema, rng)
        (new_id,) = engine.insert([row])
        live[new_id] = row
    elif roll < 0.85:
        victim = rng.choice(sorted(live))
        assert engine.delete([victim]) == [victim]
        del live[victim]
    else:
        engine.compact()


@pytest.mark.parametrize("backing", FRAME_BACKINGS)
@given(
    dataset=mixed_dataset_strategy(max_rows=20, min_to=0),
    kernel=st.sampled_from(available_kernels()),
    seed=st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=30, deadline=None)
def test_store_engine_matches_brute_force_across_reopen(backing, dataset, kernel, seed):
    rng = random.Random(seed)
    schema = dataset.schema
    queries = [BatchQuery("base")] + [
        BatchQuery(f"q{index}", _random_overrides(schema, rng)) for index in range(2)
    ]
    live = {record.id: tuple(record.values) for record in dataset.records}
    with tempfile.TemporaryDirectory() as directory, frame_backing_of(backing):
        path = os.path.join(directory, "oracle.rpro")
        pack_dataset(dataset, path, kernel=kernel)
        options = dict(kernel=kernel, compact_threshold=0)
        engine = BatchQueryEngine(path, **options)
        try:
            _assert_matches_oracle(engine, schema, live, queries)
            for _ in range(6):
                _mutate(engine, schema, live, rng)
                if rng.random() < 0.5:
                    engine.close()
                    engine = BatchQueryEngine(path, **options)
                if live:
                    _assert_matches_oracle(engine, schema, live, queries)
        finally:
            engine.close()


@pytest.mark.parametrize("backing", FRAME_BACKINGS)
def test_workers_store_engine_matches_brute_force(backing, tmp_path, monkeypatch):
    """A packed |TO|=3 store opened with ``workers=2`` answers in-process,
    before and after an insert that changes a front, and starts no process."""
    started = []
    monkeypatch.setattr(
        multiprocessing.process.BaseProcess, "start", lambda process: started.append(process)
    )
    _, dataset = WorkloadSpec(
        name="oracle-to3",
        distribution="anticorrelated",
        cardinality=300,
        num_total_order=3,
        num_partial_order=1,
        dag_height=6,
        dag_density=0.8,
        seed=3,
    ).build()
    schema = dataset.schema
    rng = random.Random(7)
    queries = [BatchQuery("base")] + [
        BatchQuery(f"q{index}", _random_overrides(schema, rng)) for index in range(3)
    ]
    live = {record.id: tuple(record.values) for record in dataset.records}
    path = os.path.join(tmp_path, "to3.rpro")
    with frame_backing_of(backing):
        pack_dataset(dataset, path)
        with open_dataset(path, workers=2, compact_threshold=0) as engine:
            assert engine.executor is None
            _assert_matches_oracle(engine, schema, live, queries)
            # Strictly better on every TO attribute than any row of its
            # group: it evicts that group's whole front.
            row = (-1.0,) * schema.num_total_order + (live[0][schema.num_total_order],)
            (new_id,) = engine.insert([row])
            live[new_id] = row
            # The front changed, so every cached skyline was dropped.
            assert engine.summary()["cached_topologies"] == 0
            _assert_matches_oracle(engine, schema, live, queries)
    assert started == []
    assert multiprocessing.active_children() == []
