"""Property-based tests for the R-tree (hypothesis)."""

from hypothesis import given, settings, strategies as st

from repro.index.geometry import Rect
from repro.index.rtree import RTree
from tests.conftest import drain_best_first

coordinate = st.integers(min_value=0, max_value=50)
point_list = st.lists(st.tuples(coordinate, coordinate), min_size=0, max_size=60)


def linear_range(points, rect):
    return sorted(
        i
        for i, p in enumerate(points)
        if all(l <= c <= h for l, c, h in zip(rect.low, p, rect.high))
    )


@settings(max_examples=60, deadline=None)
@given(points=point_list, corner=st.tuples(coordinate, coordinate), extent=st.tuples(coordinate, coordinate))
def test_bulk_loaded_range_query_matches_linear_scan(points, corner, extent):
    tree = RTree.bulk_load(2, ((p, i) for i, p in enumerate(points)), max_entries=4)
    rect = Rect(corner, (corner[0] + extent[0], corner[1] + extent[1]))
    assert sorted(e.payload for e in tree.range_query(rect)) == linear_range(points, rect)
    assert tree.boolean_range_query(rect) == bool(linear_range(points, rect))


@settings(max_examples=60, deadline=None)
@given(points=point_list, corner=st.tuples(coordinate, coordinate), extent=st.tuples(coordinate, coordinate))
def test_incrementally_built_range_query_matches_linear_scan(points, corner, extent):
    tree = RTree(2, max_entries=4)
    for i, point in enumerate(points):
        tree.insert(point, i)
    rect = Rect(corner, (corner[0] + extent[0], corner[1] + extent[1]))
    assert sorted(e.payload for e in tree.range_query(rect)) == linear_range(points, rect)


@settings(max_examples=60, deadline=None)
@given(points=point_list)
def test_best_first_drain_is_sorted_and_complete(points):
    tree = RTree.bulk_load(2, ((p, i) for i, p in enumerate(points)), max_entries=4)
    drained = drain_best_first(tree)
    mindists = [m for m, _ in drained]
    assert mindists == sorted(mindists)
    assert sorted(e.payload for _, e in drained) == list(range(len(points)))


@settings(max_examples=40, deadline=None)
@given(points=point_list)
def test_node_size_invariant_after_insertions(points):
    tree = RTree(2, max_entries=5)
    for i, point in enumerate(points):
        tree.insert(point, i)
    stack = [tree.root.node]
    while stack:
        node = stack.pop()
        assert node.size() <= tree.max_entries
        if not node.leaf:
            stack.extend(node.children)


@settings(max_examples=40, deadline=None)
@given(points=st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=40), data=st.data())
def test_delete_then_query_consistency(points, data):
    tree = RTree(2, max_entries=4)
    for i, point in enumerate(points):
        tree.insert(point, i)
    victim = data.draw(st.integers(min_value=0, max_value=len(points) - 1))
    assert tree.delete(points[victim], victim)
    rect = Rect((0, 0), (50, 50))
    payloads = sorted(e.payload for e in tree.range_query(rect))
    assert payloads == sorted(set(range(len(points))) - {victim})
