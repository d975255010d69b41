"""Unit tests for the dynamic SDC+ adaptation (the Section VI-C baseline)."""

import pytest

from repro.data.workloads import WorkloadSpec
from repro.dynamic.dtss import dtss_skyline
from repro.dynamic.sdc_dynamic import (
    REPARTITION_READ_PASSES,
    REPARTITION_WRITE_PASSES,
    sdc_plus_dynamic_skyline,
)
from repro.exceptions import QueryError
from repro.index.pager import DiskSimulator
from repro.order.dag import PartialOrderDAG
from repro.skyline.bruteforce import brute_force_skyline


@pytest.fixture(scope="module")
def workload():
    spec = WorkloadSpec(
        name="sdcdyn-unit",
        distribution="anticorrelated",
        cardinality=200,
        num_total_order=3,
        num_partial_order=1,
        dag_height=3,
        dag_density=1.0,
        to_domain_size=40,
        seed=23,
    )
    return spec.build()


@pytest.fixture(scope="module")
def query(workload):
    schema, _ = workload
    dag = schema.partial_order_attributes[0].dag
    values = list(dag.values)
    # A simple chain over the data values: a deterministic, valid dynamic query.
    return {"po1": PartialOrderDAG(values, list(zip(values, values[1:])))}


class TestCorrectness:
    def test_matches_static_recomputation(self, workload, query):
        schema, dataset = workload
        static_schema = schema.replace_partial_order(query)
        truth = frozenset(brute_force_skyline(dataset.with_schema(static_schema)).skyline_ids)
        result = sdc_plus_dynamic_skyline(dataset, query)
        assert frozenset(result.skyline_ids) == truth

    def test_agrees_with_dtss(self, workload, query):
        _, dataset = workload
        baseline = sdc_plus_dynamic_skyline(dataset, query)
        dtss = dtss_skyline(dataset, query)
        assert frozenset(baseline.skyline_ids) == frozenset(dtss.skyline_ids)

    def test_sequence_specification(self, workload, query):
        _, dataset = workload
        result = sdc_plus_dynamic_skyline(dataset, list(query.values()))
        assert frozenset(result.skyline_ids) == frozenset(
            sdc_plus_dynamic_skyline(dataset, query).skyline_ids
        )

    def test_omitted_attributes_keep_the_schema_dag(self, workload):
        _, dataset = workload
        assert frozenset(sdc_plus_dynamic_skyline(dataset, {}).skyline_ids) == frozenset(
            brute_force_skyline(dataset).skyline_ids
        )

    def test_wrong_sequence_length_raises(self, workload, query):
        _, dataset = workload
        with pytest.raises(QueryError):
            sdc_plus_dynamic_skyline(dataset, list(query.values()) * 2)


class TestCostModel:
    def test_repartition_passes_are_charged(self, workload, query):
        _, dataset = workload
        result = sdc_plus_dynamic_skyline(dataset, query, records_per_page=50)
        data_pages = -(-len(dataset) // 50)
        assert result.stats.io_reads >= REPARTITION_READ_PASSES * data_pages
        assert result.stats.io_writes >= REPARTITION_WRITE_PASSES * data_pages

    def test_index_rebuild_writes_are_charged_with_a_disk(self, workload, query):
        _, dataset = workload
        disk = DiskSimulator()
        result = sdc_plus_dynamic_skyline(dataset, query, disk=disk)
        # Bulk-loading the per-stratum R-trees writes at least one page each.
        assert result.stats.io_writes > REPARTITION_WRITE_PASSES * (len(dataset) // 100)

    def test_per_query_cost_exceeds_dtss(self, workload, query):
        """The headline of Section VI-C: rebuilding per query is far more expensive."""
        _, dataset = workload
        disk = DiskSimulator()
        baseline = sdc_plus_dynamic_skyline(dataset, query, disk=disk)
        dtss = dtss_skyline(dataset, query, disk=DiskSimulator())
        assert baseline.stats.total_ios > dtss.stats.total_ios
