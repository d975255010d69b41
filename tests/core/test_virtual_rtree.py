"""Unit tests for the main-memory virtual-point R-tree."""

import pytest

from repro.core.mapping import TSSMapping
from repro.core.tdominance import TDominanceChecker
from repro.core.virtual_rtree import VirtualPointIndex
from repro.data.dataset import Dataset
from repro.data.schema import PartialOrderAttribute, Schema, TotalOrderAttribute
from repro.order.intervals import IntervalSet


@pytest.fixture
def paper_setup(example_dag):
    schema = Schema([TotalOrderAttribute("A1"), PartialOrderAttribute("A2", example_dag)])
    rows = [
        (2, "c"), (3, "d"), (1, "h"), (8, "a"), (6, "e"), (7, "c"), (9, "b"),
        (4, "i"), (2, "f"), (3, "g"), (5, "g"), (7, "f"), (9, "h"),
    ]
    dataset = Dataset(schema, rows)
    mapping = TSSMapping(dataset)
    encoding = mapping.encodings[0]
    return dataset, mapping, encoding


class TestInsertion:
    def test_virtual_point_count_matches_interval_count(self, paper_setup):
        _, mapping, encoding = paper_setup
        index = VirtualPointIndex(1, [encoding])
        point = next(p for p in mapping.points if p.po_values == ("e",))
        inserted = index.insert_mapped_point(point)
        assert inserted == len(encoding.interval_set("e"))
        assert index.num_skyline_points == 1
        assert index.num_virtual_points == inserted
        assert len(index) == inserted

    def test_multiple_po_attributes_build_the_cartesian_product(self, example_dag):
        schema = Schema(
            [
                TotalOrderAttribute("x"),
                PartialOrderAttribute("p", example_dag),
                PartialOrderAttribute("q", example_dag),
            ]
        )
        dataset = Dataset(schema, [(1, "e", "e")])
        mapping = TSSMapping(dataset)
        index = VirtualPointIndex(1, mapping.encodings)
        inserted = index.insert_mapped_point(mapping.points[0])
        per_attr = len(mapping.encodings[0].interval_set("e"))
        assert inserted == per_attr * per_attr


class TestPointQueries:
    def test_agrees_with_checker_on_paper_data(self, paper_setup):
        dataset, mapping, encoding = paper_setup
        checker = TDominanceChecker(mapping)
        # Insert a few skyline points, then compare the index's answer with a
        # direct list-based t-dominance scan for every remaining point.
        skyline = [mapping.points[0], mapping.points[1], mapping.points[2]]
        index = VirtualPointIndex(1, [encoding])
        for point in skyline:
            index.insert_mapped_point(point)
        for candidate in mapping.points:
            if candidate in skyline:
                continue
            expected = checker.point_dominated_by_any(skyline, candidate)
            got = index.dominates_candidate_point(candidate.to_values, candidate.po_values)
            assert got == expected, candidate

    def test_empty_index_dominates_nothing(self, paper_setup):
        _, mapping, encoding = paper_setup
        index = VirtualPointIndex(1, [encoding])
        candidate = mapping.points[0]
        assert not index.dominates_candidate_point(candidate.to_values, candidate.po_values)


class TestMBBQueries:
    def test_agrees_with_single_point_dominance(self, paper_setup):
        """When one skyline point t-dominates an MBB, the index must agree."""
        _, mapping, encoding = paper_setup
        checker = TDominanceChecker(mapping)
        p1 = next(p for p in mapping.points if p.po_values == ("c",) and p.to_values == (2.0,))
        index = VirtualPointIndex(1, [encoding])
        index.insert_mapped_point(p1)
        for low_ord in range(1, 10):
            for high_ord in range(low_ord, 10):
                low = (2.0, float(low_ord))
                high = (6.0, float(high_ord))
                range_set = IntervalSet.from_mask(
                    checker.range_interval_set(0, low_ord, high_ord)
                )
                expected = checker.dominates_mbb(p1, low, high)
                got = index.dominates_candidate_mbb(low, high, [range_set])
                assert got == expected, (low_ord, high_ord)

    def test_joint_pruning_is_allowed(self, example_dag):
        """Two skyline points may jointly cover an MBB no single point dominates."""
        schema = Schema([TotalOrderAttribute("x"), PartialOrderAttribute("p", example_dag)])
        # h and i are both leaves; neither dominates the other, but together
        # they cover the A_TO range {h, i} at equal TO value.
        dataset = Dataset(schema, [(1, "h"), (1, "i"), (5, "h"), (5, "i")])
        mapping = TSSMapping(dataset)
        encoding = mapping.encodings[0]
        checker = TDominanceChecker(mapping)
        p_h = next(p for p in mapping.points if p.po_values == ("h",) and p.to_values == (1.0,))
        p_i = next(p for p in mapping.points if p.po_values == ("i",) and p.to_values == (1.0,))
        index = VirtualPointIndex(1, [encoding])
        index.insert_mapped_point(p_h)
        index.insert_mapped_point(p_i)
        low_ord = min(encoding.ordinal("h"), encoding.ordinal("i"))
        high_ord = max(encoding.ordinal("h"), encoding.ordinal("i"))
        low, high = (1.0, float(low_ord)), (5.0, float(high_ord))
        range_set = IntervalSet.from_mask(checker.range_interval_set(0, low_ord, high_ord))
        assert not checker.dominates_mbb(p_h, low, high)
        assert not checker.dominates_mbb(p_i, low, high)
        assert index.dominates_candidate_mbb(low, high, [range_set])

    def test_empty_range_set_is_never_pruned(self, paper_setup):
        _, mapping, encoding = paper_setup
        index = VirtualPointIndex(1, [encoding])
        index.insert_mapped_point(mapping.points[0])
        assert not index.dominates_candidate_mbb((0.0, 1.0), (9.0, 9.0), [IntervalSet()])

    def test_combination_cap_falls_back_to_not_dominated(self, paper_setup):
        _, mapping, encoding = paper_setup
        index = VirtualPointIndex(1, [encoding], max_combinations=0)
        index.insert_mapped_point(mapping.points[0])
        checker = TDominanceChecker(mapping)
        range_set = IntervalSet.from_mask(checker.range_interval_set(0, 1, 9))
        assert not index.dominates_candidate_mbb((0.0, 1.0), (9.0, 9.0), [range_set])
