"""Compaction renumbers the live rows; it recomputes nothing.

The live rows keep their order in the compacted base, so each candidate's
new row is its position among them: the tracked per-group fronts carry
over, and so do the TO-dominance graph's pairs, which index positions in the
candidate list.  Pinned here on both kernels, both frame backings, in memory
and store-backed, for explicit compaction and for compaction a write
triggers:

* compaction calls neither the prefilter nor the graph build;
* afterwards the fronts, the candidates and the graph equal those of an
  engine opened fresh over the live rows (on the graph path and on the
  level sweep);
* a store rewritten by compaction is byte-identical to :func:`pack_frame`
  of the same live frame with a fresh prefilter's survivors.
"""

from __future__ import annotations

import random

import pytest

import repro.engine.batch as batch
import repro.engine.groups as groups
import repro.store.writer as writer
from repro.api import pack
from repro.data.dataset import Dataset
from repro.data.workloads import WorkloadSpec
from repro.engine.batch import BatchQuery, BatchQueryEngine
from repro.engine.prefilter import prefilter_survivors
from repro.kernels import available_kernels
from tests.conftest import assert_backing

pytestmark = pytest.mark.usefixtures("frame_backing")


@pytest.fixture(scope="module")
def workload():
    spec = WorkloadSpec(
        name="renumber-test",
        distribution="anticorrelated",
        cardinality=300,
        num_total_order=2,
        num_partial_order=2,
        dag_height=3,
        dag_density=0.7,
        to_domain_size=50,
        seed=17,
    )
    return spec.build()


def _open(dataset, tmp_path, kernel, store_backed, threshold=0):
    if not store_backed:
        return BatchQueryEngine(dataset, kernel=kernel, compact_threshold=threshold)
    path = str(tmp_path / "catalog.rpro")
    pack(dataset, path, kernel=kernel)
    return BatchQueryEngine(path, kernel=kernel, compact_threshold=threshold)


def _mutate(engine, live: dict[int, tuple], rng: random.Random, count: int) -> None:
    """``count`` inserts then ``count`` deletes, mirrored into ``live``.

    Inserts scale a live row's TO values, so some dominate their group's
    front; every other delete, the first and the last of an odd ``count``
    among them, hits a candidate, so some fronts resurrect rows."""
    schema = engine.schema
    rows = []
    for _ in range(count):
        values = list(live[rng.choice(sorted(live))])
        for index, attribute in enumerate(schema.attributes):
            if not attribute.is_partial:
                values[index] = float(values[index]) * rng.uniform(0.6, 1.1)
        rows.append(tuple(values))
    for record_id, row in zip(engine.insert(rows), rows):
        live[record_id] = row
    for turn in range(count):
        pool = sorted(live) if turn % 2 else engine._candidate_ids
        victim = rng.choice(pool)
        assert engine.delete([victim]) == [victim]
        del live[victim]


def _assert_equals_fresh(engine, live: dict[int, tuple]) -> None:
    """The engine's candidate state is that of a fresh engine over the live
    rows, which the compacted base holds in stable-id order."""
    ids = sorted(live)
    assert engine._delta.base_ids == ids
    fresh = BatchQueryEngine(
        Dataset(engine.schema, [live[record_id] for record_id in ids]), kernel=engine.kernel
    )
    assert engine._tracker.fronts == fresh._tracker.fronts
    assert engine._tracker.candidates() == fresh._tracker.candidates()
    assert engine.candidate_count == fresh.candidate_count
    graph, expected = engine._graph, fresh._graph
    assert (graph is None) == (expected is None)
    if graph is not None:
        assert graph.rows == expected.rows
        assert list(graph.pairs.src) == list(expected.pairs.src)
        assert list(graph.pairs.dst) == list(expected.pairs.dst)
        assert list(graph.pairs.starts) == list(expected.pairs.starts)
        assert [list(codes) for codes in graph.pairs.pair_codes] == [
            list(codes) for codes in expected.pairs.pair_codes
        ]


@pytest.fixture(params=["graph", "levels"])
def query_path(request, monkeypatch):
    if request.param == "levels":
        monkeypatch.setattr(groups, "GRAPH_PAIRS_PER_CANDIDATE", 0)
    return request.param


@pytest.mark.parametrize("kernel", available_kernels())
@pytest.mark.parametrize("store_backed", [False, True], ids=["in-memory", "store"])
def test_compaction_only_renumbers(
    workload, tmp_path, kernel, store_backed, query_path, frame_backing, monkeypatch
):
    _, dataset = workload
    live = {record.id: tuple(record.values) for record in dataset.records}
    rng = random.Random(5)
    query = BatchQuery("base")
    with _open(dataset, tmp_path, kernel, store_backed) as engine:
        assert engine.summary()["query_path"]["path"] == query_path
        calls = {"prefilter": 0, "graph": 0}

        def counting(name, function):
            def counted(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return counted

        for module, name, counter in (
            (batch, "prefilter_survivors", "prefilter"),
            (writer, "prefilter_survivors", "prefilter"),
            (batch, "build_graph", "graph"),
        ):
            monkeypatch.setattr(module, name, counting(counter, getattr(module, name)))
        for _ in range(3):
            _mutate(engine, live, rng, 6)
            before = engine.run_query(query).skyline_ids
            calls.update(prefilter=0, graph=0)
            assert engine.compact()["compacted"] is True
            assert calls == {"prefilter": 0, "graph": 0}
            assert_backing(engine._delta.base, frame_backing)
            assert engine.summary()["delta"] is None
            # The result cache stands, and recomputing agrees with it.
            cached = engine.run_query(query)
            assert cached.from_cache and cached.skyline_ids == before
            _assert_equals_fresh(engine, live)
        engine._result_cache.clear()
        assert engine.run_query(query).skyline_ids == before


@pytest.mark.parametrize("kernel", available_kernels())
@pytest.mark.parametrize("store_backed", [False, True], ids=["in-memory", "store"])
def test_compaction_a_write_triggers_carries_the_current_graph(
    workload, tmp_path, kernel, store_backed
):
    """A write that changes a front and crosses the threshold (the last
    delete of each round, a candidate) rebuilds the graph before compaction
    carries it over."""
    _, dataset = workload
    live = {record.id: tuple(record.values) for record in dataset.records}
    rng = random.Random(9)
    with _open(dataset, tmp_path, kernel, store_backed, threshold=10) as engine:
        for round_ in range(1, 4):
            _mutate(engine, live, rng, 5)
            assert engine.compactions == round_
            _assert_equals_fresh(engine, live)


@pytest.mark.parametrize("kernel", available_kernels())
def test_compacted_store_is_packed_from_the_carried_candidates(
    workload, tmp_path, kernel
):
    """The rewritten store holds exactly the bytes a fresh prefilter would
    have packed."""
    from repro.store.writer import pack_frame

    schema, dataset = workload
    live = {record.id: tuple(record.values) for record in dataset.records}
    with _open(dataset, tmp_path, kernel, store_backed=True) as engine:
        _mutate(engine, live, random.Random(3), 8)
        frame, row_ids = engine._delta.live_frame_and_ids()
        next_id = engine._delta.next_id
        engine.compact()
        path = engine.store.path
        kernel_object = engine.kernel
    expected = tmp_path / "expected.rpro"
    pack_frame(
        frame,
        expected,
        survivors=prefilter_survivors(schema, None, frame, kernel_object),
        row_ids=row_ids,
        generation=1,
        next_id=next_id,
    )
    with open(path, "rb") as compacted, open(expected, "rb") as packed:
        assert compacted.read() == packed.read()
