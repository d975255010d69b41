"""Edge schemas of the engine's group-at-a-time path.

Every case runs on both frame backings and both kernels and is checked
against :func:`brute_force_skyline` over the live rows under the query's
effective schema.
"""

from __future__ import annotations

import functools
import random

import pytest

from repro.api import open_dataset
from repro.data.dataset import Dataset
from repro.data.schema import PartialOrderAttribute, Schema, TotalOrderAttribute
from repro.data.workloads import WorkloadSpec
from repro.engine.batch import BatchQuery, BatchQueryEngine, random_query_preferences
from repro.kernels import available_kernels, get_kernel
from repro.kernels.tables import TDominanceTables
from repro.order.builders import chain, random_dag
from repro.order.dag import PartialOrderDAG
from repro.order.encoding import encode_domain
from repro.skyline.bruteforce import brute_force_skyline
from tests.conftest import assert_backing

pytestmark = pytest.mark.usefixtures("frame_backing")

#: a > b > c on the base DAG.
ABC = chain(["a", "b", "c"])


def _schema(num_to: int, *dags: PartialOrderDAG) -> Schema:
    attributes = [TotalOrderAttribute(f"t{i}") for i in range(num_to)]
    attributes += [PartialOrderAttribute(f"p{i}", dag) for i, dag in enumerate(dags)]
    return Schema(attributes)


def _truth(schema: Schema, live: dict[int, tuple], query: BatchQuery) -> list[int]:
    effective = (
        schema.replace_partial_order(dict(query.dag_overrides))
        if query.dag_overrides
        else schema
    )
    ids = sorted(live)
    rows = Dataset(effective, [live[record_id] for record_id in ids])
    return sorted(ids[position] for position in brute_force_skyline(rows).skyline_ids)


def _assert_exact(schema, rows, queries, kernel, backing):
    live = dict(enumerate(rows))
    with BatchQueryEngine(Dataset(schema, rows), kernel=kernel) as engine:
        assert_backing(engine._frame, backing)
        for query in queries:
            assert engine.run_query(query).skyline_ids == _truth(schema, live, query), (
                query.name
            )


@pytest.mark.parametrize("kernel", available_kernels())
class TestEdgeSchemas:
    def test_to_only_schema(self, kernel, frame_backing):
        schema = _schema(2)
        rows = [(3, 1), (1, 3), (2, 2), (3, 3), (1, 3), (4, 0)]
        _assert_exact(schema, rows, [BatchQuery("base")], kernel, frame_backing)

    def test_po_only_schema(self, kernel, frame_backing):
        flat = PartialOrderDAG(["x", "y"], [])
        schema = _schema(0, ABC, flat)
        rows = [("b", "x"), ("c", "x"), ("c", "y"), ("b", "x"), ("a", "y")]
        queries = [
            BatchQuery("base"),
            BatchQuery("flip", {"p0": chain(["c", "b", "a"]), "p1": chain(["y", "x"])}),
            BatchQuery("none", {"p0": PartialOrderDAG(["a", "b", "c"], [])}),
        ]
        _assert_exact(schema, rows, queries, kernel, frame_backing)

    def test_exact_duplicates_within_and_across_groups(self, kernel, frame_backing):
        schema = _schema(2, ABC)
        rows = [
            (1, 2, "a"), (1, 2, "a"),  # duplicates inside one group
            (2, 1, "b"), (2, 1, "b"),
            (1, 2, "b"),  # a's TO values, a dominated group: dropped
            (2, 1, "c"),  # b's TO values, a dominated group: dropped
            (0, 5, "c"),
        ]
        queries = [
            BatchQuery("base"),
            BatchQuery("antichain", {"p0": PartialOrderDAG(["a", "b", "c"], [])}),
            BatchQuery("reversed", {"p0": chain(["c", "b", "a"])}),
        ]
        _assert_exact(schema, rows, queries, kernel, frame_backing)

    def test_mutually_incomparable_groups(self, kernel, frame_backing):
        schema = _schema(1, ABC, ABC)
        # (a, c) and (c, a) are incomparable under the base DAGs; (b, b) is
        # incomparable to both.  Every group keeps its front.
        rows = [(5, "a", "c"), (5, "c", "a"), (5, "b", "b"), (9, "a", "c")]
        queries = [
            BatchQuery("base"),
            BatchQuery("split", {"p0": PartialOrderDAG(["a", "b", "c"], [("a", "b")])}),
        ]
        _assert_exact(schema, rows, queries, kernel, frame_backing)

    def test_po_domain_wider_than_a_word(self, kernel, frame_backing):
        """A 130-value PO domain under random and chain overrides, which
        reshape the levels and which groups dominate which."""
        rng = random.Random(130)
        wide = random_dag(130, edge_probability=0.03, seed=1)
        schema = _schema(2, wide, ABC)
        rows = [
            (rng.randint(0, 6), rng.randint(0, 6), rng.choice(wide.values), rng.choice("abc"))
            for _ in range(300)
        ]
        queries = [BatchQuery("base")] + [
            BatchQuery(
                f"random{seed}",
                {"p0": random_dag(130, edge_probability=0.03, seed=seed)},
            )
            for seed in (2, 3, 4)
        ]
        queries.append(
            BatchQuery("both", {"p0": chain(wide.values), "p1": chain(["c", "b", "a"])})
        )
        live = dict(enumerate(rows))
        with open_dataset(Dataset(schema, rows), kernel=kernel) as engine:
            assert_backing(engine._frame, frame_backing)
            for query in queries:
                answer = engine.run_query(query).skyline_ids
                assert answer == _truth(schema, live, query), query.name

    @pytest.mark.parametrize("num_to", [2, 3])
    def test_infinite_to_values(self, kernel, frame_backing, num_to):
        """Infinities on both sides, and rows holding both +inf and -inf
        (a NaN TO sum), in dominator and dominated groups alike."""
        inf = float("inf")
        pad = (0,) * (num_to - 2)
        heads = [
            (inf, -inf), (-inf, inf), (inf, 0), (0, inf), (inf, inf),
            (-inf, 3), (3, -inf), (1, 2), (2, 1), (inf, -inf),
        ]
        rows = [head + pad + (value,) for head in heads for value in "abc"]
        rows += [(inf, -inf) + (-1,) * (num_to - 2) + ("c",), (5, 5) + pad + ("a",)]
        queries = [
            BatchQuery("base"),
            BatchQuery("reversed", {"p0": chain(["c", "b", "a"])}),
            BatchQuery("antichain", {"p0": PartialOrderDAG(["a", "b", "c"], [])}),
        ]
        _assert_exact(_schema(num_to, ABC), rows, queries, kernel, frame_backing)

    def test_one_kernel_call_per_level(self, kernel, frame_backing, monkeypatch):
        schema = _schema(2, ABC)
        rows = [
            (0, 5, "a"), (5, 0, "a"),
            (1, 6, "b"), (6, 1, "b"), (3, 3, "b"),
            (2, 2, "c"), (9, 9, "c"),  # (9, 9, c) falls to the prefilter
        ]
        store = get_kernel(kernel).tdominance_store(
            TDominanceTables.from_encodings(2, [encode_domain(ABC)])
        )
        checked: list[int] = []
        original = type(store).block_weakly_dominated

        def counting(self, to_rows, code_rows, counter=None):
            checked.append(len(to_rows))
            return original(self, to_rows, code_rows, counter)

        monkeypatch.setattr(type(store), "block_weakly_dominated", counting)
        # In process even under REPRO_WORKERS: the calls counted are the
        # group path's own.
        with BatchQueryEngine(Dataset(schema, rows), kernel=kernel) as engine:
            assert_backing(engine._frame, frame_backing)
            # Levels a, b, c: level a has nothing to check against, then one
            # call per level over all of its front rows.
            result = engine.run_query(BatchQuery("base"))
            assert result.skyline_ids == [0, 1, 4, 5]
            assert checked == [3, 1]
            assert result.stats.points_examined == 6
            # An antichain puts every group on level 0: no kernel call.
            checked.clear()
            flat = BatchQuery("flat", {"p0": PartialOrderDAG(["a", "b", "c"], [])})
            assert engine.run_query(flat).skyline_ids == [0, 1, 2, 3, 4, 5]
            assert checked == []

    def test_base_delete_resurrects_a_dropped_sibling(self, kernel, frame_backing):
        schema = _schema(2, ABC)
        rows = [(1, 1, "a"), (2, 2, "a"), (1.5, 1.5, "b"), (0, 9, "c")]
        live = dict(enumerate(rows))
        queries = [BatchQuery("base"), BatchQuery("reversed", {"p0": chain(["c", "b", "a"])})]
        with BatchQueryEngine(
            Dataset(schema, rows), kernel=kernel, compact_threshold=0
        ) as engine:
            assert 1 not in engine._candidate_ids  # (2, 2, a) is prefiltered
            for query in queries:
                assert engine.run_query(query).skyline_ids == _truth(schema, live, query)
            fronts = engine._tracker.fronts
            before = dict(fronts)
            assert engine.delete([0]) == [0]
            del live[0]
            # Only the dirty group's front is replaced, in place.
            assert engine._tracker.fronts is fronts
            changed = {key for key in before if fronts.get(key) != before[key]}
            assert changed == {engine._tracker._group_key(0)}
            assert 1 in engine._candidate_ids
            for query in queries:
                answer = engine.run_query(query).skyline_ids
                assert answer == _truth(schema, live, query), query.name
            assert 1 in engine.run_query(BatchQuery("base")).skyline_ids


#: batch-sharded's shape, scaled down: |TO|=3, one PO attribute whose domain
#: is a height-6 lattice, anticorrelated rows.
SHARDED_SHAPE = WorkloadSpec(
    name="sharded-shape",
    distribution="anticorrelated",
    cardinality=2500,
    num_total_order=3,
    num_partial_order=1,
    dag_height=6,
    dag_density=0.8,
    seed=3,
)


@functools.lru_cache(maxsize=1)
def _sharded_shape_case() -> tuple[Dataset, BatchQuery, list[int]]:
    schema, dataset = SHARDED_SHAPE.build()
    query = BatchQuery("random", random_query_preferences(schema, 12))
    live = {record.id: tuple(record.values) for record in dataset.records}
    return dataset, query, _truth(schema, live, query)


@pytest.mark.parametrize("kernel", available_kernels())
def test_batch_sharded_shape_matches_brute_force(kernel, frame_backing, monkeypatch):
    """Levels of hundreds of rows against stores of hundreds more: on the
    NumPy kernel the larger blocks take the sorted sweep."""
    dataset, query, truth = _sharded_shape_case()
    swept: list[int] = []
    if kernel == "numpy":
        from repro.kernels.numpy_kernel import NumpyTDominanceStore

        original = NumpyTDominanceStore._sorted_sweep

        def counting(self, tgt_to, tgt_codes):
            swept.append(len(tgt_to))
            return original(self, tgt_to, tgt_codes)

        monkeypatch.setattr(NumpyTDominanceStore, "_sorted_sweep", counting)
    with BatchQueryEngine(dataset, kernel=kernel) as engine:
        assert_backing(engine._frame, frame_backing)
        assert engine.run_query(query).skyline_ids == truth
    assert bool(swept) == (kernel == "numpy")
