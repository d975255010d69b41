"""The engine's two query paths against each other and the oracle.

An engine answers from the TO-dominance graph of its candidates when the
graph fits :data:`~repro.engine.groups.GRAPH_PAIRS_PER_CANDIDATE` and its
build :data:`~repro.engine.groups.GRAPH_COMPARISONS_PER_CANDIDATE`, and from
the level sweep otherwise (an engine opened with the bound patched to 0
takes the sweep).  On random mixed datasets, over integer, infinite and
rounding-tie TO values, both paths must give the brute-force skyline, on
both kernels and both frame backings; a shape over either bound must be
served from the sweep.
"""

from __future__ import annotations

import contextlib
import functools
import random
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.dataset import Dataset
from repro.engine import groups
from repro.engine.batch import BatchQuery, BatchQueryEngine
from repro.kernels import available_kernels
from repro.order import encoding
from repro.order.builders import chain
from repro.order.dag import PartialOrderDAG
from tests.conftest import (
    FRAME_BACKINGS,
    INFINITE_TO_VALUES,
    ROUNDING_TIE_TO_VALUES,
    assert_backing,
    frame_backing_of,
    mixed_dataset_strategy,
)
from tests.engine.test_group_path import _schema
from tests.engine.test_oracle_differential import _oracle, _random_overrides

TO_VALUE_SETS = {
    "integers": None,
    "infinite": INFINITE_TO_VALUES,
    "rounding-ties": ROUNDING_TIE_TO_VALUES,
}


def _level_engine(dataset, kernel) -> BatchQueryEngine:
    with mock.patch.object(groups, "GRAPH_PAIRS_PER_CANDIDATE", 0):
        return BatchQueryEngine(dataset, kernel=kernel)


def _path(engine) -> str:
    return engine.summary()["query_path"]["path"]


def _renumbered_overrides(schema, rng: random.Random) -> dict[str, PartialOrderDAG]:
    """A random DAG per PO attribute that lists its domain in a shuffled
    insertion order plus one value outside it, so resolution must put the
    domain back in the frame's code order and drop the outside value."""
    overrides = {}
    for attribute in schema.partial_order_attributes:
        values = [*attribute.dag.values, "outside"]
        ranking = values[:]
        rng.shuffle(ranking)
        probability = rng.random() * 0.9
        edges = [
            (ranking[i], ranking[j])
            for i in range(len(ranking))
            for j in range(i + 1, len(ranking))
            if rng.random() < probability
        ]
        rng.shuffle(values)
        overrides[attribute.name] = PartialOrderDAG(values, edges)
    return overrides


@contextlib.contextmanager
def _encode_domain_spy():
    """A mock counting every :func:`~repro.order.encoding.encode_domain`
    call, under each name a ``repro`` module imported it by."""
    original = encoding.encode_domain
    spy = mock.Mock(wraps=original)
    with contextlib.ExitStack() as stack:
        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and getattr(module, "encode_domain", None) is original:
                stack.enter_context(mock.patch.object(module, "encode_domain", spy))
        yield spy


@pytest.mark.parametrize("backing", FRAME_BACKINGS)
@pytest.mark.parametrize("values", sorted(TO_VALUE_SETS))
@given(data=st.data(), kernel=st.sampled_from(available_kernels()))
@settings(max_examples=25, deadline=None)
def test_graph_equals_levels_equals_oracle(backing, values, data, kernel):
    dataset = data.draw(
        mixed_dataset_strategy(max_rows=25, min_to=0, to_values=TO_VALUE_SETS[values])
    )
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=10**6)))
    schema = dataset.schema
    queries = [BatchQuery("base")] + [
        BatchQuery(f"q{index}", _random_overrides(schema, rng)) for index in range(2)
    ] + [
        BatchQuery(f"renumbered{index}", _renumbered_overrides(schema, rng))
        for index in range(2)
    ]
    live = {record.id: tuple(record.values) for record in dataset.records}
    with frame_backing_of(backing):
        graph_engine = BatchQueryEngine(dataset, kernel=kernel)
        level_engine = _level_engine(dataset, kernel)
    assert _path(level_engine) == "levels"
    for query in queries:
        truth = _oracle(schema, live, query)
        assert graph_engine.run_query(query).skyline_ids == truth, query.name
        assert level_engine.run_query(query).skyline_ids == truth, query.name


@pytest.mark.parametrize("kernel", available_kernels())
@pytest.mark.usefixtures("frame_backing")
class TestGraphShapes:
    def test_no_po_attribute_is_one_group_and_no_pairs(self, kernel):
        rows = [(3, 1), (1, 3), (2, 2), (3, 3), (1, 3)]
        engine = BatchQueryEngine(Dataset(_schema(2), rows), kernel=kernel)
        assert engine.summary()["query_path"] == {"path": "graph", "pairs": 0, "bytes": 0}
        result = engine.run_query(BatchQuery("base"))
        assert result.skyline_ids == [0, 1, 2, 4]
        assert result.stats.dominance_checks == 0
        assert result.stats.points_examined == 4

    def test_graph_path_charges_pairs_and_candidates(self, kernel):
        abc = chain(["a", "b", "c"])
        rows = [(0, 5, "a"), (5, 0, "a"), (1, 6, "b"), (6, 1, "b"), (3, 3, "b"), (2, 2, "c")]
        dataset = Dataset(_schema(2, abc), rows)
        reversed_query = BatchQuery("reversed", {"p0": chain(["c", "b", "a"])})
        with _encode_domain_spy() as spy:
            engine = BatchQueryEngine(dataset, kernel=kernel)
            pairs = len(engine._graph.pairs)
            # (0,5,a) <= (1,6,b); (5,0,a) <= (6,1,b); (2,2,c) <= (3,3,b).
            assert pairs == 3
            result = engine.run_query(BatchQuery("base"))
            assert result.skyline_ids == [0, 1, 4, 5]
            assert result.stats.dominance_checks == pairs
            assert result.stats.points_examined == 6
            # Neither path builds an interval encoding.
            level_engine = _level_engine(dataset, kernel)
            assert _path(level_engine) == "levels"
            for query in (BatchQuery("base"), reversed_query):
                assert (
                    level_engine.run_query(query).skyline_ids
                    == engine.run_query(query).skyline_ids
                )
        assert spy.call_count == 0


#: |TO|=1 over two 12-value antichains: every candidate is its group's
#: minimum, and on one TO attribute about half of all cross-group pairs
#: are weak, so the graph holds about 70 pairs per candidate.
OVER_BOUND_DAG = PartialOrderDAG([f"v{i}" for i in range(12)], [])


@functools.lru_cache(maxsize=1)
def _over_bound_case():
    schema = _schema(1, OVER_BOUND_DAG, OVER_BOUND_DAG)
    rng = random.Random(3)
    values = OVER_BOUND_DAG.values
    rows = [(rng.randint(0, 10**6), rng.choice(values), rng.choice(values)) for _ in range(500)]
    queries = [
        BatchQuery("base"),
        BatchQuery("chains", {"p0": chain(values), "p1": chain(values[::-1])}),
    ]
    live = dict(enumerate(rows))
    return schema, rows, queries, [_oracle(schema, live, query) for query in queries]


@pytest.mark.parametrize("kernel", available_kernels())
def test_shape_over_the_bound_is_served_from_levels(kernel, frame_backing, monkeypatch):
    schema, rows, queries, truths = _over_bound_case()
    dataset = Dataset(schema, rows)
    engine = BatchQueryEngine(dataset, kernel=kernel)
    assert_backing(engine._delta.base, frame_backing)
    assert engine.summary()["query_path"] == {"path": "levels"}
    assert [engine.run_query(query).skyline_ids for query in queries] == truths
    # With room for it, the same candidates get a graph past the bound.
    bound = groups.GRAPH_PAIRS_PER_CANDIDATE
    monkeypatch.setattr(groups, "GRAPH_PAIRS_PER_CANDIDATE", 10**6)
    roomy = BatchQueryEngine(dataset, kernel=kernel)
    path = roomy.summary()["query_path"]
    assert path["path"] == "graph"
    assert path["pairs"] > bound * roomy.candidate_count
    assert [roomy.run_query(query).skyline_ids for query in queries] == truths


@pytest.mark.parametrize("kernel", available_kernels())
def test_preference_matrices_count_against_the_bound(kernel, frame_backing, monkeypatch):
    """A domain whose preference matrix outweighs the bound keeps the level
    sweep, even where the pairs alone would fit."""
    wide = PartialOrderDAG([f"v{i}" for i in range(20)], [])
    rows = [(0, value) for value in wide.values]  # 20 groups, 20 candidates
    dataset = Dataset(_schema(1, wide), rows)
    monkeypatch.setattr(groups, "GRAPH_PAIRS_PER_CANDIDATE", 19)
    assert _path(BatchQueryEngine(dataset, kernel=kernel)) == "levels"
    monkeypatch.setattr(groups, "GRAPH_PAIRS_PER_CANDIDATE", 20)
    engine = BatchQueryEngine(dataset, kernel=kernel)
    # Equal TO rows in different groups: every ordered pair is weak.
    assert engine.summary()["query_path"]["pairs"] == 20 * 19
    query = BatchQuery("chain", {"p0": chain(wide.values)})
    assert engine.run_query(query).skyline_ids == [0]


@pytest.mark.parametrize("kernel", available_kernels())
def test_dominant_group_without_to_is_served_from_levels(kernel, frame_backing, monkeypatch):
    """|TO|=0 with one group of 1,100 candidates and 21 in three others: the
    pairs fit their bound (2 x 1,100 x 21 + 294 = 46,494 of 71,744), but
    every cell takes all 1,121 candidates as members, past the comparison
    bound, so the engine keeps the level sweep."""
    values = ["a", "b", "c", "d"]
    rows = [("a",)] * 1100 + [(value,) for value in values[1:] for _ in range(7)]
    dataset = Dataset(_schema(0, chain(values)), rows)
    queries = [
        (BatchQuery("base"), list(range(1100))),
        (BatchQuery("reversed", {"p0": chain(values[::-1])}), list(range(1114, 1121))),
        (BatchQuery("antichain", {"p0": PartialOrderDAG(values, [])}), list(range(1121))),
    ]
    engine = BatchQueryEngine(dataset, kernel=kernel)
    assert_backing(engine._delta.base, frame_backing)
    assert _path(engine) == "levels"
    for query, truth in queries:
        assert engine.run_query(query).skyline_ids == truth, query.name
    monkeypatch.setattr(groups, "GRAPH_COMPARISONS_PER_CANDIDATE", 1121)
    roomy = BatchQueryEngine(dataset, kernel=kernel)
    assert roomy.summary()["query_path"]["pairs"] == 46_494
    for query, truth in queries:
        assert roomy.run_query(query).skyline_ids == truth, query.name
