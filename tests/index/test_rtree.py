"""Unit tests for the R-tree (bulk loading, insertion, queries, traversal)."""

import random

import pytest

from repro.exceptions import IndexError_
from repro.index.geometry import Rect
from repro.index.pager import DiskSimulator
from repro.index.rtree import NodeRef, RTree, RTreeEntry
from tests.conftest import drain_best_first


def random_points(n, dims=2, seed=0, extent=100.0):
    rng = random.Random(seed)
    return [tuple(rng.random() * extent for _ in range(dims)) for _ in range(n)]


def linear_range(points, rect):
    return sorted(
        i for i, p in enumerate(points) if all(l <= c <= h for l, c, h in zip(rect.low, p, rect.high))
    )


@pytest.fixture
def bulk_tree():
    points = random_points(400, seed=1)
    tree = RTree.bulk_load(2, ((p, i) for i, p in enumerate(points)))
    return points, tree


@pytest.fixture
def insert_tree():
    points = random_points(300, seed=2)
    tree = RTree(2, max_entries=8)
    for i, point in enumerate(points):
        tree.insert(point, i)
    return points, tree


class TestConstruction:
    def test_invalid_parameters(self):
        with pytest.raises(IndexError_):
            RTree(0)
        with pytest.raises(IndexError_):
            RTree(2, max_entries=2)
        with pytest.raises(IndexError_):
            RTree(2, max_entries=8, min_entries=7)

    def test_bulk_load_size_and_entries(self, bulk_tree):
        points, tree = bulk_tree
        assert len(tree) == len(points)
        assert len(tree.all_entries()) == len(points)

    def test_bulk_load_empty(self):
        tree = RTree.bulk_load(2, [])
        assert len(tree) == 0
        assert tree.range_query(Rect((0, 0), (1, 1))) == []
        assert not tree.boolean_range_query(Rect((0, 0), (1, 1)))

    def test_bulk_load_respects_fanout(self):
        points = random_points(200, seed=3)
        tree = RTree.bulk_load(2, ((p, i) for i, p in enumerate(points)), max_entries=8)
        stack = [tree.root.node]
        while stack:
            node = stack.pop()
            assert node.size() <= 8
            if not node.leaf:
                stack.extend(node.children)

    def test_insert_grows_height(self, insert_tree):
        _, tree = insert_tree
        assert tree.height > 1
        assert tree.node_count() > 1

    def test_insert_dimension_mismatch(self):
        tree = RTree(2)
        with pytest.raises(IndexError_):
            tree.insert((1, 2, 3), 0)

    def test_node_mbrs_contain_children(self, insert_tree):
        _, tree = insert_tree
        stack = [tree.root.node]
        while stack:
            node = stack.pop()
            if node.leaf:
                for entry in node.entries:
                    assert node.mbr.contains_rect(entry.rect)
            else:
                for child in node.children:
                    assert node.mbr.contains_rect(child.mbr)
                    stack.append(child)


class TestQueries:
    @pytest.mark.parametrize("fixture_name", ["bulk_tree", "insert_tree"])
    def test_range_query_matches_linear_scan(self, fixture_name, request):
        points, tree = request.getfixturevalue(fixture_name)
        for seed in range(5):
            rng = random.Random(seed)
            low = (rng.random() * 80, rng.random() * 80)
            rect = Rect(low, (low[0] + 25, low[1] + 25))
            got = sorted(e.payload for e in tree.range_query(rect))
            assert got == linear_range(points, rect)

    def test_boolean_range_query(self, bulk_tree):
        points, tree = bulk_tree
        assert tree.boolean_range_query(Rect((0, 0), (100, 100)))
        assert not tree.boolean_range_query(Rect((200, 200), (300, 300)))

    def test_count_in_range(self, bulk_tree):
        points, tree = bulk_tree
        rect = Rect((0, 0), (50, 50))
        assert tree.count_in_range(rect) == len(linear_range(points, rect))

    def test_query_dimension_mismatch(self, bulk_tree):
        _, tree = bulk_tree
        with pytest.raises(IndexError_):
            tree.range_query(Rect((0,), (1,)))

    def test_delete_removes_entry(self, insert_tree):
        points, tree = insert_tree
        assert tree.delete(points[10], 10)
        assert len(tree) == len(points) - 1
        rect = Rect.from_point(points[10])
        assert 10 not in [e.payload for e in tree.range_query(rect)]

    def test_delete_missing_returns_false(self, insert_tree):
        points, tree = insert_tree
        assert not tree.delete((999.0, 999.0), 10)
        assert len(tree) == len(points)


class TestBestFirst:
    def test_drain_yields_points_in_mindist_order(self, bulk_tree):
        points, tree = bulk_tree
        mindists = [m for m, _ in drain_best_first(tree)]
        assert mindists == sorted(mindists)
        assert len(mindists) == len(points)

    def test_drain_matches_sorted_points(self, insert_tree):
        points, tree = insert_tree
        order = [e.payload for _, e in drain_best_first(tree)]
        expected = sorted(range(len(points)), key=lambda i: sum(points[i]))
        got_keys = [sum(points[i]) for i in order]
        assert got_keys == sorted(sum(p) for p in points)
        assert set(order) == set(expected)

    def test_manual_expansion_and_pruning(self, bulk_tree):
        points, tree = bulk_tree
        traversal = tree.best_first()
        seen_points = 0
        while traversal:
            _, item = traversal.pop()
            if isinstance(item, NodeRef):
                # Prune every node whose MBR starts beyond x+y = 60.
                if item.rect.mindist() > 60:
                    continue
                traversal.expand(item)
            else:
                assert isinstance(item, RTreeEntry)
                seen_points += 1
        assert 0 < seen_points <= len(points)

    def test_pop_on_exhausted_traversal_raises(self):
        tree = RTree.bulk_load(2, [])
        traversal = tree.best_first()
        assert not traversal
        with pytest.raises(IndexError_):
            traversal.pop()


class TestIOAccounting:
    def test_bulk_load_charges_writes(self):
        disk = DiskSimulator()
        points = random_points(200, seed=4)
        tree = RTree.bulk_load(2, ((p, i) for i, p in enumerate(points)), max_entries=8, disk=disk)
        assert disk.stats.writes == tree.node_count()
        # An empty load writes nothing, though its (empty) root page exists.
        empty_disk = DiskSimulator()
        empty = RTree.bulk_load(2, [], max_entries=8, disk=empty_disk)
        assert empty_disk.stats.writes == 0
        assert empty.node_count() == 1

    def test_traversal_charges_one_read_per_expanded_node(self):
        disk = DiskSimulator()
        points = random_points(200, seed=5)
        tree = RTree.bulk_load(2, ((p, i) for i, p in enumerate(points)), max_entries=8, disk=disk)
        disk.stats.reset()
        drain_best_first(tree)
        assert disk.stats.reads == tree.node_count()

    def test_range_query_charge_io_flag(self):
        disk = DiskSimulator()
        points = random_points(100, seed=6)
        tree = RTree.bulk_load(2, ((p, i) for i, p in enumerate(points)), disk=disk)
        disk.stats.reset()
        tree.range_query(Rect((0, 0), (100, 100)), charge_io=False)
        assert disk.stats.reads == 0
        tree.range_query(Rect((0, 0), (100, 100)), charge_io=True)
        assert disk.stats.reads > 0
