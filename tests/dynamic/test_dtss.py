"""Unit tests for the dTSS dynamic skyline algorithm."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.columns import EncodedFrame
from repro.data.workloads import WorkloadSpec
from repro.delta.frame import DeltaFrame
from repro.dynamic import (
    FullyDynamicEngine,
    GroupedDataset,
    fully_dynamic_skyline,
    sdc_plus_dynamic_skyline,
)
from repro.dynamic.dtss import DTSSIndex, dtss_skyline
from repro.exceptions import QueryError
from repro.index.pager import DiskSimulator
from repro.kernels import available_kernels
from repro.order.builders import random_dag
from repro.order.dag import PartialOrderDAG
from repro.order.lattice import lattice_domain
from repro.skyline.bruteforce import brute_force_skyline
from tests.conftest import INFINITE_TO_VALUES, default_kernel, mixed_dataset_strategy


@pytest.fixture(scope="module")
def workload():
    spec = WorkloadSpec(
        name="dtss-unit",
        distribution="independent",
        cardinality=220,
        num_total_order=2,
        num_partial_order=1,
        dag_height=4,
        dag_density=0.8,
        to_domain_size=40,
        seed=17,
    )
    return spec.build()


def query_order_for(schema, seed):
    """A fresh partial order over the same value domain as the data DAG."""
    dag = schema.partial_order_attributes[0].dag
    sampled = lattice_domain(6, 0.9, seed=seed)
    # Restrict a differently-shaped lattice to the data's values when possible,
    # otherwise fall back to a random order over the same values.
    if all(value in sampled for value in dag.values):
        return sampled.restrict(dag.values)
    return random_dag(len(dag.values), edge_probability=0.2, seed=seed).relabel(
        dict(zip([f"v{i}" for i in range(len(dag.values))], dag.values))
    )


def ground_truth(dataset, partial_orders):
    schema = dataset.schema.replace_partial_order(partial_orders)
    return frozenset(brute_force_skyline(dataset.with_schema(schema, validate=False)).skyline_ids)


class TestCorrectness:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_static_recomputation(self, workload, seed):
        schema, dataset = workload
        query = {"po1": query_order_for(schema, seed)}
        truth = ground_truth(dataset, query)
        assert frozenset(dtss_skyline(dataset, query).skyline_ids) == truth

    def test_list_based_and_rtree_checks_agree(self, workload):
        schema, dataset = workload
        query = {"po1": query_order_for(schema, 4)}
        with_tree = dtss_skyline(dataset, query, use_virtual_rtree=True)
        with_list = dtss_skyline(dataset, query, use_virtual_rtree=False)
        assert frozenset(with_tree.skyline_ids) == frozenset(with_list.skyline_ids)

    def test_local_skyline_optimization_agrees(self, workload):
        schema, dataset = workload
        query = {"po1": query_order_for(schema, 5)}
        base = dtss_skyline(dataset, query)
        optimized = dtss_skyline(dataset, query, use_local_skylines=True)
        assert frozenset(base.skyline_ids) == frozenset(optimized.skyline_ids)

    def test_partial_orders_as_sequence(self, workload):
        schema, dataset = workload
        query = query_order_for(schema, 6)
        by_name = dtss_skyline(dataset, {"po1": query})
        by_position = dtss_skyline(dataset, [query])
        assert frozenset(by_name.skyline_ids) == frozenset(by_position.skyline_ids)

    def test_empty_preferences_make_every_group_best(self, workload):
        schema, dataset = workload
        dag = schema.partial_order_attributes[0].dag
        no_preferences = PartialOrderDAG(dag.values, [])
        truth = ground_truth(dataset, {"po1": no_preferences})
        assert frozenset(dtss_skyline(dataset, {"po1": no_preferences}).skyline_ids) == truth

    def test_total_order_query(self, workload):
        schema, dataset = workload
        dag = schema.partial_order_attributes[0].dag
        values = list(dag.values)
        total_order = PartialOrderDAG(values, list(zip(values, values[1:])))
        truth = ground_truth(dataset, {"po1": total_order})
        assert frozenset(dtss_skyline(dataset, {"po1": total_order}).skyline_ids) == truth


@st.composite
def infinite_dataset_and_query(draw):
    """A mixed dataset with ±inf TO values, and a random query DAG over each
    PO attribute's values."""
    dataset = draw(mixed_dataset_strategy(max_rows=30, to_values=INFINITE_TO_VALUES))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    query = {}
    for attribute in dataset.schema.partial_order_attributes:
        ranked = list(attribute.dag.values)
        rng.shuffle(ranked)
        edges = [
            (better, worse)
            for i, better in enumerate(ranked)
            for worse in ranked[i + 1 :]
            if rng.random() < 0.4
        ]
        query[attribute.name] = PartialOrderDAG(attribute.dag.values, edges)
    return dataset, query


class TestInfiniteToValues:
    """±inf TO values tie (or NaN) the sums both the group-tree traversal
    and the local-skyline sweep order by; every path must still answer the
    brute-force skyline, under every kernel."""

    @pytest.mark.parametrize("kernel", available_kernels())
    @pytest.mark.parametrize(
        "options",
        [{}, {"use_local_skylines": True}, {"use_virtual_rtree": True}],
        ids=["tree", "local", "virtual"],
    )
    @given(case=infinite_dataset_and_query())
    @settings(max_examples=30, deadline=None)
    def test_matches_brute_force(self, kernel, options, case):
        dataset, query = case
        with default_kernel(kernel):
            result = dtss_skyline(dataset, query, **options)
        assert frozenset(result.skyline_ids) == ground_truth(dataset, query)


class TestIndexReuse:
    def test_index_answers_many_queries(self, workload):
        schema, dataset = workload
        index = DTSSIndex(dataset)
        for seed in (7, 8, 9):
            query = {"po1": query_order_for(schema, seed)}
            truth = ground_truth(dataset, query)
            assert frozenset(index.query(query).skyline_ids) == truth

    def test_group_structures_are_not_rebuilt_between_queries(self, workload):
        schema, dataset = workload
        disk = DiskSimulator()
        index = DTSSIndex(dataset, disk=disk)
        build_writes = disk.stats.writes
        index.query({"po1": query_order_for(schema, 10)})
        index.query({"po1": query_order_for(schema, 11)})
        assert disk.stats.writes == build_writes  # queries only read

    def test_queries_charge_only_traversal_reads(self, workload):
        schema, dataset = workload
        disk = DiskSimulator()
        index = DTSSIndex(dataset, disk=disk)
        result = index.query({"po1": query_order_for(schema, 12)})
        assert result.stats.io_reads >= 0
        assert result.stats.io_writes == 0


class TestValidation:
    def test_omitted_attributes_keep_the_schema_dag(self, workload):
        _, dataset = workload
        assert frozenset(DTSSIndex(dataset).query({}).skyline_ids) == frozenset(
            brute_force_skyline(dataset).skyline_ids
        )

    def test_wrong_number_of_sequence_orders(self, workload):
        schema, dataset = workload
        index = DTSSIndex(dataset)
        with pytest.raises(QueryError):
            index.query([query_order_for(schema, 1), query_order_for(schema, 2)])

    def test_query_domain_must_cover_data_values(self, workload):
        _, dataset = workload
        index = DTSSIndex(dataset)
        with pytest.raises(QueryError):
            index.query({"po1": PartialOrderDAG([999999], [])})

    @pytest.mark.parametrize("source", ["frame", "delta"])
    @pytest.mark.parametrize(
        "entry_point",
        [
            "GroupedDataset",
            "DTSSIndex",
            "dtss_skyline",
            "dtss_skyline_with_index",
            "sdc_plus_dynamic_skyline",
            "fully_dynamic_skyline",
            "FullyDynamicEngine",
        ],
    )
    def test_columnar_sources_are_rejected(self, workload, source, entry_point):
        schema, dataset = workload
        frame = EncodedFrame.from_dataset(dataset)
        data = frame if source == "frame" else DeltaFrame(frame)
        query = {"po1": query_order_for(schema, 1)}
        ideals = [0.0] * schema.num_total_order
        calls = {
            "GroupedDataset": lambda: GroupedDataset(data),
            "DTSSIndex": lambda: DTSSIndex(data),
            "dtss_skyline": lambda: dtss_skyline(data, query),
            "dtss_skyline_with_index": lambda: dtss_skyline(data, query, index=DTSSIndex(dataset)),
            "sdc_plus_dynamic_skyline": lambda: sdc_plus_dynamic_skyline(data, query),
            "fully_dynamic_skyline": lambda: fully_dynamic_skyline(data, query, ideals),
            "FullyDynamicEngine": lambda: FullyDynamicEngine(data),
        }
        with pytest.raises(QueryError, match="read a record Dataset"):
            calls[entry_point]()


class TestProgressiveness:
    def test_results_are_streamed_per_point(self, workload):
        schema, dataset = workload
        query = {"po1": query_order_for(schema, 13)}
        result = dtss_skyline(dataset, query)
        distinct = {dataset[i].values for i in result.skyline_ids}
        assert len(result.progress) == len(distinct)
