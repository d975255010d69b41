"""Unit tests for the TO skyline algorithms (brute force, BNL, SFS, BBS)."""

import pytest

from repro.data.dataset import Dataset
from repro.data.generator import generate_dataset
from repro.data.schema import Schema, TotalOrderAttribute
from repro.exceptions import SchemaError
from repro.index.pager import DiskSimulator
from repro.skyline.bbs import bbs_skyline
from repro.skyline.bnl import bnl_skyline
from repro.skyline.bruteforce import brute_force_skyline, brute_force_skyline_records
from repro.skyline.sfs import monotone_sort_key, sfs_skyline


@pytest.fixture
def to_schema():
    return Schema([TotalOrderAttribute("x"), TotalOrderAttribute("y")])


@pytest.fixture
def to_dataset(to_schema):
    return generate_dataset(to_schema, 300, distribution="anticorrelated", to_domain_size=60, seed=3)


@pytest.fixture
def truth(to_dataset):
    return frozenset(brute_force_skyline(to_dataset).skyline_ids)


class TestBruteForce:
    def test_paper_example_stops_price_skyline(self, flight_dataset):
        """Figure 1(b): with all airlines equal, the skyline is p1, p3, p6, p7, p9."""
        to_schema = Schema([TotalOrderAttribute("price"), TotalOrderAttribute("stops")])
        data = Dataset(to_schema, [record.values[:2] for record in flight_dataset])
        skyline = frozenset(brute_force_skyline(data).skyline_ids)
        assert skyline == {0, 2, 5, 6, 8}

    def test_records_variant_matches(self, to_dataset):
        by_id = frozenset(brute_force_skyline(to_dataset).skyline_ids)
        by_record = frozenset(record.id for record in brute_force_skyline_records(to_dataset))
        assert by_id == by_record

    def test_flight_skyline_with_airlines(self, flight_dataset):
        """Table I, first partial order: skyline = {p1, p5, p6, p9, p10}."""
        skyline = frozenset(brute_force_skyline(flight_dataset).skyline_ids)
        assert skyline == {0, 4, 5, 8, 9}

    def test_duplicates_are_both_in_the_skyline(self, to_schema):
        data = Dataset(to_schema, [(1, 1), (1, 1), (2, 2)])
        skyline = frozenset(brute_force_skyline(data).skyline_ids)
        assert skyline == {0, 1}

    def test_single_record(self, to_schema):
        data = Dataset(to_schema, [(5, 5)])
        assert brute_force_skyline(data).skyline_ids == [0]


class TestBNL:
    def test_matches_brute_force(self, to_dataset, truth):
        assert frozenset(bnl_skyline(to_dataset).skyline_ids) == truth

    @pytest.mark.parametrize("window", [1, 3, 10, 50])
    def test_window_size_does_not_change_the_result(self, to_dataset, truth, window):
        assert frozenset(bnl_skyline(to_dataset, window_size=window).skyline_ids) == truth

    def test_works_on_po_schema(self, flight_dataset):
        assert frozenset(bnl_skyline(flight_dataset).skyline_ids) == {0, 4, 5, 8, 9}

    def test_counts_work(self, to_dataset):
        result = bnl_skyline(to_dataset)
        assert result.stats.points_examined >= len(to_dataset)
        assert result.stats.dominance_checks > 0


class TestSFS:
    def test_matches_brute_force(self, to_dataset, truth):
        assert frozenset(sfs_skyline(to_dataset).skyline_ids) == truth

    def test_works_on_po_schema(self, flight_dataset):
        assert frozenset(sfs_skyline(flight_dataset).skyline_ids) == {0, 4, 5, 8, 9}

    def test_sort_key_is_monotone_wrt_dominance(self, flight_dataset, flight_schema):
        from repro.skyline.dominance import dominates_records

        key = monotone_sort_key(flight_schema)
        for a in flight_dataset:
            for b in flight_dataset:
                if dominates_records(flight_schema, a, b):
                    assert key(a.values) < key(b.values)

    def test_is_optimally_progressive(self, to_dataset, truth):
        """Every output point is final: progress events equal the skyline size."""
        result = sfs_skyline(to_dataset)
        assert len(result.progress) == len(truth)

    def test_candidate_list_never_holds_non_skyline_points(self, to_dataset, truth):
        result = sfs_skyline(to_dataset)
        assert frozenset(result.skyline_ids) <= truth


class TestBBS:
    def test_matches_brute_force(self, to_dataset, truth):
        assert frozenset(bbs_skyline(to_dataset).skyline_ids) == truth
        assert bbs_skyline(Dataset(to_dataset.schema, [])).skyline_ids == []

    def test_rejects_po_schemas(self, flight_dataset):
        with pytest.raises(SchemaError):
            bbs_skyline(flight_dataset)

    def test_results_come_out_in_mindist_order(self, to_dataset):
        pytest.importorskip("numpy")
        result = bbs_skyline(to_dataset)
        matrix = to_dataset.to_numeric_matrix()
        mindists = [float(matrix[i].sum()) for i in result.skyline_ids]
        assert mindists == sorted(mindists)

    def test_io_accounting_prunes_subtrees(self, to_dataset):
        disk = DiskSimulator()
        result = bbs_skyline(to_dataset, disk=disk, max_entries=8)
        # BBS must not read every node of the tree (it prunes dominated MBBs).
        from repro.index.rtree import RTree

        full_tree = RTree.bulk_load(
            2,
            ((to_dataset.schema.canonical_to_values(r.values), r.id) for r in to_dataset),
            max_entries=8,
        )
        assert result.stats.io_reads < full_tree.node_count()
        assert result.stats.io_reads == result.stats.nodes_expanded

    def test_small_fanout_still_correct(self, to_dataset, truth):
        assert frozenset(bbs_skyline(to_dataset, max_entries=4).skyline_ids) == truth

    def test_progressiveness_log(self, to_dataset, truth):
        result = bbs_skyline(to_dataset)
        assert len(result.progress) == len(truth)
        times = [event.cpu_seconds for event in result.progress]
        assert times == sorted(times)
