"""Unit tests for the BBS+, SDC and SDC+ baselines."""

import pytest

from repro.baselines.bbs_plus import bbs_plus_skyline
from repro.baselines.sdc import sdc_skyline
from repro.baselines.sdc_plus import sdc_plus_skyline
from repro.baselines.transform import BaselineMapping
from repro.data.workloads import WorkloadSpec
from repro.index.pager import DiskSimulator
from repro.skyline.bruteforce import brute_force_skyline

ALGORITHMS = {
    "bbs+": bbs_plus_skyline,
    "sdc": sdc_skyline,
    "sdc+": sdc_plus_skyline,
}


@pytest.fixture(scope="module", params=["independent", "anticorrelated"])
def workload(request):
    spec = WorkloadSpec(
        name="baseline-unit",
        distribution=request.param,
        cardinality=220,
        num_total_order=2,
        num_partial_order=1,
        dag_height=4,
        dag_density=0.7,
        to_domain_size=40,
        seed=31,
    )
    schema, dataset = spec.build()
    truth = frozenset(brute_force_skyline(dataset).skyline_ids)
    return dataset, truth


class TestCorrectness:
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_matches_brute_force(self, workload, name):
        dataset, truth = workload
        result = ALGORITHMS[name](dataset)
        assert frozenset(result.skyline_ids) == truth

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_flight_example(self, flight_dataset, name):
        result = ALGORITHMS[name](flight_dataset)
        assert frozenset(result.skyline_ids) == {0, 4, 5, 8, 9}

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_small_fanout(self, workload, name):
        dataset, truth = workload
        result = ALGORITHMS[name](dataset, max_entries=4)
        assert frozenset(result.skyline_ids) == truth

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_prebuilt_mapping_reused(self, workload, name):
        dataset, truth = workload
        mapping = BaselineMapping(dataset)
        result = ALGORITHMS[name](dataset, mapping=mapping)
        assert frozenset(result.skyline_ids) == truth

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_duplicates_are_reported(self, flight_dataset, name):
        from repro.data.dataset import Dataset

        rows = [(1000, 1, "b"), (1000, 1, "b"), (500, 2, "d")]
        dataset = Dataset(flight_dataset.schema, rows)
        result = ALGORITHMS[name](dataset)
        assert frozenset(result.skyline_ids) == {0, 1, 2}


class TestBehaviour:
    def test_bbs_plus_is_not_progressive(self, workload):
        dataset, _ = workload
        result = bbs_plus_skyline(dataset)
        # All progress events are emitted at the very end (cross-examination),
        # so the first and last event are essentially simultaneous.
        assert result.progress[0].dominance_checks > 0

    def test_sdc_reports_completely_covered_points_early(self, workload):
        dataset, truth = workload
        result = sdc_skyline(dataset)
        assert frozenset(result.skyline_ids) == truth
        assert len(result.progress) == len(
            {dataset[i].values for i in result.skyline_ids}
        )

    def test_sdc_plus_false_hit_elimination_is_counted(self, workload):
        dataset, _ = workload
        result = sdc_plus_skyline(dataset)
        assert result.stats.false_hits_removed >= 0
        assert result.stats.dominance_checks > 0

    def test_sdc_plus_processes_strata_with_own_trees(self, workload):
        dataset, truth = workload
        mapping = BaselineMapping(dataset)
        trees = {
            level: mapping.build_rtree([p.index for p in points], max_entries=8)
            for level, points in mapping.strata().items()
        }
        result = sdc_plus_skyline(dataset, mapping=mapping, stratum_trees=trees)
        assert frozenset(result.skyline_ids) == truth

    def test_io_accounting(self, workload):
        dataset, _ = workload
        for name, algorithm in ALGORITHMS.items():
            disk = DiskSimulator()
            result = algorithm(dataset, disk=disk, max_entries=8)
            assert result.stats.io_reads > 0, name
            # One simulated read per expanded node, none for pruned subtrees.
            assert result.stats.io_reads == result.stats.nodes_expanded, name
            assert result.stats.total_seconds >= result.stats.io_seconds, name

    def test_m_dominance_methods_pay_for_false_hits_that_tss_never_has(self):
        """The paper's headline: the incomplete mapping forces the baselines to
        find and evict false hits, work that exact t-dominance never needs."""
        from repro.core.stss import stss_skyline

        spec = WorkloadSpec(
            name="false-hits",
            distribution="anticorrelated",
            cardinality=300,
            num_total_order=2,
            num_partial_order=1,
            dag_height=5,
            dag_density=1.0,
            to_domain_size=30,
            seed=41,
        )
        _, dataset = spec.build()
        bbs_plus = bbs_plus_skyline(dataset)
        tss = stss_skyline(dataset, use_virtual_rtree=False)
        assert frozenset(bbs_plus.skyline_ids) == frozenset(tss.skyline_ids)
        # The m-dominance candidate list contains false hits that must be
        # cross-examined away; exact t-dominance never produces any.
        assert bbs_plus.stats.false_hits_removed > 0
        assert tss.stats.false_hits_removed == 0
