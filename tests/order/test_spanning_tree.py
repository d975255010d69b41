"""Unit tests for spanning-tree extraction and postorder interval labelling."""

from repro.order.builders import antichain, chain
from repro.order.dag import PartialOrderDAG
from repro.order.intervals import Interval
from repro.order.spanning_tree import extract_spanning_tree


class TestExtraction:
    def test_every_node_gets_a_post_number(self, example_dag):
        tree = extract_spanning_tree(example_dag)
        posts = sorted(tree.post.values())
        assert posts == list(range(1, len(example_dag) + 1))

    def test_roots_have_no_parent(self, example_dag):
        tree = extract_spanning_tree(example_dag)
        assert tree.parent["a"] is None
        assert all(tree.parent[v] is not None for v in example_dag.values if v != "a")

    def test_parent_is_a_dag_predecessor(self, example_dag):
        tree = extract_spanning_tree(example_dag)
        for child, parent in tree.parent.items():
            if parent is not None:
                assert parent in example_dag.predecessors(child)

    def test_tree_edges_plus_non_tree_edges_cover_all_edges(self, example_dag):
        tree = extract_spanning_tree(example_dag)
        assert set(tree.tree_edges()) | set(tree.non_tree_edges()) == set(example_dag.edges)
        assert not set(tree.tree_edges()) & set(tree.non_tree_edges())

    def test_forest_for_multi_root_dag(self):
        dag = PartialOrderDAG("abcd", [("a", "c"), ("b", "d")])
        tree = extract_spanning_tree(dag)
        assert tree.parent["a"] is None and tree.parent["b"] is None
        assert sorted(tree.post.values()) == [1, 2, 3, 4]

    def test_antichain_is_all_roots(self):
        dag = antichain(["x", "y", "z"])
        tree = extract_spanning_tree(dag)
        assert all(parent is None for parent in tree.parent.values())

    def test_parent_is_the_first_predecessor(self, example_dag):
        tree = extract_spanning_tree(example_dag)
        for value in example_dag.values:
            predecessors = example_dag.predecessors(value)
            assert tree.parent[value] == (predecessors[0] if predecessors else None)


class TestIntervals:
    def test_interval_is_minpost_post(self):
        dag = chain(["a", "b", "c"])
        tree = extract_spanning_tree(dag)
        # Postorder of a chain rooted at a: c=1, b=2, a=3.
        assert tree.interval("c") == Interval(1, 1)
        assert tree.interval("b") == Interval(1, 2)
        assert tree.interval("a") == Interval(1, 3)

    def test_subtree_intervals_are_nested(self, example_dag):
        tree = extract_spanning_tree(example_dag)
        for child, parent in tree.parent.items():
            if parent is not None:
                assert tree.interval(parent).contains(tree.interval(child))

    def test_tree_descendants_match_interval_containment(self, example_dag):
        tree = extract_spanning_tree(example_dag)
        for value in example_dag.values:
            descendants = tree.tree_descendants(value)
            covered = {
                other
                for other in example_dag.values
                if other != value and tree.interval(value).contains(tree.interval(other))
            }
            assert covered == descendants

    def test_tree_prefers_implies_dag_preference(self, example_dag):
        tree = extract_spanning_tree(example_dag)
        for x in example_dag.values:
            for y in example_dag.values:
                if x != y and tree.tree_prefers(x, y):
                    assert example_dag.is_preferred(x, y)

    def test_tree_prefers_is_irreflexive(self, example_dag):
        tree = extract_spanning_tree(example_dag)
        assert not any(tree.tree_prefers(v, v) for v in example_dag.values)

    def test_intervals_mapping_covers_domain(self, example_dag):
        tree = extract_spanning_tree(example_dag)
        intervals = tree.intervals()
        assert set(intervals) == set(example_dag.values)

    def test_paper_tree_misses_some_preferences(self, example_dag):
        """The spanning tree cannot capture every preference of Figure 2(a)."""
        tree = extract_spanning_tree(example_dag)
        missed = [
            (x, y)
            for x in example_dag.values
            for y in example_dag.values
            if x != y and example_dag.is_preferred(x, y) and not tree.tree_prefers(x, y)
        ]
        assert missed, "a DAG with non-tree edges must have preferences the tree misses"
