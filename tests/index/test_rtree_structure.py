"""Structural tests for the STR bulk load of the pointer R-tree and for the
generic BBS loop that walks it.

Every static tree the paper's algorithms traverse is an STR bulk-loaded
:class:`~repro.index.rtree.RTree`, so its layout invariants (fanout, equal
leaf depth, tight MBRs, every point exactly once) and the page accounting of
:func:`~repro.skyline.bbs.run_bbs` over it are checked here directly.
"""

import random

import pytest

from repro.exceptions import IndexError_
from repro.index.geometry import Rect
from repro.index.pager import DiskSimulator
from repro.index.rtree import RTree, RTreeEntry
from repro.skyline.base import RunClock, SkylineStats
from repro.skyline.bbs import run_bbs
from tests.conftest import drain_best_first


def _random_points(n, dims, seed=0):
    rng = random.Random(seed)
    return [tuple(float(rng.randrange(50)) for _ in range(dims)) for _ in range(n)]


def _tree(points, dims, max_entries=8, disk=None):
    return RTree.bulk_load(
        dims, ((p, i) for i, p in enumerate(points)), max_entries=max_entries, disk=disk
    )


def _walk(tree):
    """Yield ``(depth, node)`` for every node, root at depth 1."""
    stack = [(1, tree.root.node)]
    while stack:
        depth, node = stack.pop()
        yield depth, node
        if not node.leaf:
            stack.extend((depth + 1, child) for child in node.children)


def _never(*_):
    return False


def _always(*_):
    return True


def _run(tree, *, prune=False, stats=None, clock=None, seen=None):
    stats = stats if stats is not None else SkylineStats()
    predicate = _always if prune else _never
    return run_bbs(
        tree,
        dominated_point=predicate,
        dominated_rect=predicate,
        on_result=(lambda point, payload: seen.append((point, payload)))
        if seen is not None
        else _never,
        stats=stats,
        clock=clock,
    )


class TestBulkLoadStructure:
    @pytest.mark.parametrize("n", [0, 1, 7, 33, 400])
    @pytest.mark.parametrize("dims", [2, 3])
    def test_str_layout_invariants(self, n, dims):
        points = _random_points(n, dims, seed=n + dims)
        tree = _tree(points, dims, max_entries=8)
        assert len(tree) == n
        nodes = list(_walk(tree))
        assert tree.node_count() == len(nodes)
        assert len({node.page_id for _, node in nodes}) == len(nodes)
        payloads = []
        for depth, node in nodes:
            assert node.size() <= tree.max_entries
            if n:
                assert node.size() >= 1
            if node.leaf:
                # Every leaf sits at the bottom level of a balanced tree.
                assert depth == tree.height
                payloads.extend(entry.payload for entry in node.entries)
                if node.entries:
                    assert node.mbr == Rect.bounding(e.rect for e in node.entries)
            else:
                assert depth < tree.height
                # The cached MBR is exactly the bound of its children.
                assert node.mbr == Rect.bounding(child.mbr for child in node.children)
        assert sorted(payloads) == list(range(n))
        drained = [(m, e.payload) for m, e in drain_best_first(tree)]
        assert [m for m, _ in drained] == sorted(m for m, _ in drained)
        assert sorted(p for _, p in drained) == list(range(n))

    def test_all_entries_are_point_entries(self):
        points = _random_points(50, 2, seed=9)
        tree = _tree(points, 2, max_entries=4)
        entries = tree.all_entries()
        assert all(isinstance(entry, RTreeEntry) for entry in entries)
        assert sorted(entry.payload for entry in entries) == list(range(50))
        for entry in entries:
            assert entry.rect.low == entry.rect.high == points[entry.payload]

    def test_explicit_payloads_are_honored(self):
        points = _random_points(20, 2, seed=1)
        payloads = [("row", i * 7 + 3) for i in range(20)]
        tree = RTree.bulk_load(2, zip(points, payloads), max_entries=4)
        assert sorted(entry.payload for entry in tree.all_entries()) == sorted(payloads)

    def test_bulk_load_is_deterministic(self):
        points = _random_points(200, 3, seed=11)
        first, second = _tree(points, 3), _tree(points, 3)
        assert first.height == second.height
        assert first.node_count() == second.node_count()
        assert [(m, e.payload) for m, e in drain_best_first(first)] == [
            (m, e.payload) for m, e in drain_best_first(second)
        ]

    def test_validation_errors(self):
        points = _random_points(10, 2)
        with pytest.raises(IndexError_):
            RTree.bulk_load(2, ((p, i) for i, p in enumerate(points)), max_entries=3)
        with pytest.raises(IndexError_):
            RTree.bulk_load(0, [])


class TestDiskAccounting:
    def test_bulk_load_pages_come_from_the_disk(self):
        disk = DiskSimulator()
        tree = _tree(_random_points(120, 2, seed=3), 2, disk=disk)
        page_ids = sorted(node.page_id for _, node in _walk(tree))
        # The pages of the finished tree are distinct pages of this disk.
        assert len(set(page_ids)) == tree.node_count()
        assert page_ids[-1] < disk.allocate_page()

    def test_full_traversal_reads_every_node_once(self):
        disk = DiskSimulator()
        tree = _tree(_random_points(150, 2, seed=4), 2, disk=disk)
        disk.stats.reset()
        stats = SkylineStats()
        results = _run(tree, stats=stats)
        assert disk.stats.reads == tree.node_count()
        assert stats.nodes_expanded == tree.node_count()
        assert stats.points_examined == len(results) == 150


class TestBBSLoop:
    def test_no_pruning_reports_everything_in_mindist_order(self):
        points = _random_points(80, 2, seed=8)
        tree = _tree(points, 2, max_entries=4)
        seen = []
        stats = SkylineStats()
        results = _run(tree, stats=stats, seen=seen)
        mindists = [sum(points[payload]) for payload in results]
        assert mindists == sorted(mindists)
        assert sorted(results) == list(range(80))
        assert stats.points_examined == 80
        # ``on_result`` sees each reported point with its payload.
        assert seen == [(points[payload], payload) for payload in results]

    def test_dominated_root_prunes_the_whole_tree(self):
        disk = DiskSimulator()
        tree = _tree(_random_points(40, 2, seed=2), 2, max_entries=4, disk=disk)
        disk.stats.reset()
        stats = SkylineStats()
        assert _run(tree, prune=True, stats=stats) == []
        assert stats.nodes_expanded == 0
        assert stats.points_examined == 0
        assert disk.stats.reads == 0

    def test_empty_tree_yields_no_results(self):
        stats = SkylineStats()
        assert _run(_tree([], 2), stats=stats) == []
        assert stats.points_examined == 0

    def test_clock_records_one_progress_point_per_result(self):
        tree = _tree(_random_points(30, 2, seed=6), 2, max_entries=4)
        stats = SkylineStats()
        clock = RunClock(stats)
        results = _run(tree, stats=stats, clock=clock)
        clock.finish()
        assert len(results) == 30
        assert [event.results_so_far for event in clock.progress] == list(range(1, 31))
