"""Unit tests for the partial-order DAG type."""

import pytest

from repro.exceptions import CycleError, PartialOrderError, UnknownValueError
from repro.engine.encodings import dag_signature
from repro.order.dag import PartialOrderDAG


class TestConstruction:
    def test_values_preserve_insertion_order(self):
        dag = PartialOrderDAG(["c", "a", "b"], [])
        assert dag.values == ("c", "a", "b")

    def test_duplicate_values_rejected(self):
        with pytest.raises(PartialOrderError):
            PartialOrderDAG(["a", "a"], [])

    def test_edge_with_unknown_value_rejected(self):
        with pytest.raises(UnknownValueError):
            PartialOrderDAG(["a", "b"], [("a", "z")])

    def test_self_loop_rejected(self):
        with pytest.raises(PartialOrderError):
            PartialOrderDAG(["a"], [("a", "a")])

    def test_cycle_rejected(self):
        with pytest.raises(CycleError):
            PartialOrderDAG(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])

    def test_parallel_edges_collapsed(self):
        dag = PartialOrderDAG(["a", "b"], [("a", "b"), ("a", "b")])
        assert dag.num_edges == 1

    def test_from_mapping(self):
        dag = PartialOrderDAG.from_mapping({"a": ["b", "c"], "b": ["d"]})
        assert set(dag.values) == {"a", "b", "c", "d"}
        assert dag.is_preferred("a", "d")

    def test_add_edge_after_construction_checks_cycles(self):
        dag = PartialOrderDAG(["a", "b"], [("a", "b")])
        with pytest.raises(CycleError):
            dag.add_edge("b", "a")

    def test_rejected_edge_is_forgotten(self):
        dag = PartialOrderDAG(["a", "b"], [("a", "b")])
        for _ in range(2):  # not mistaken for a parallel edge the second time
            with pytest.raises(CycleError):
                dag.add_edge("b", "a")
        assert dag.edges == [("a", "b")]
        assert dag.successors("b") == ()

    def test_large_star_builds_in_linear_time(self):
        # A list membership test per edge made this quadratic: about n**2 / 2
        # value comparisons for an n-leaf star (a minute for 100,000 edges).
        comparisons = 0

        class Counted:
            def __init__(self, key):
                self.key = key

            def __hash__(self):
                return hash(self.key)

            def __eq__(self, other):
                nonlocal comparisons
                comparisons += 1
                return self.key == other.key

        n = 2_000
        values = [Counted(key) for key in range(n + 1)]
        dag = PartialOrderDAG(values, [(values[0], leaf) for leaf in values[1:]])
        assert dag.num_edges == n and dag.predecessors(values[7]) == (values[0],)
        assert comparisons <= 4 * n

    def test_len_contains_iter(self):
        dag = PartialOrderDAG(["a", "b"], [("a", "b")])
        assert len(dag) == 2
        assert "a" in dag and "z" not in dag
        assert list(dag) == ["a", "b"]


class TestReachability:
    @pytest.fixture
    def diamond(self):
        return PartialOrderDAG("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])

    def test_descendants(self, diamond):
        assert diamond.descendants("a") == {"b", "c", "d"}
        assert diamond.descendants("d") == frozenset()

    def test_ancestors(self, diamond):
        assert diamond.ancestors("d") == {"a", "b", "c"}
        assert diamond.ancestors("a") == frozenset()

    def test_is_preferred_direct_and_transitive(self, diamond):
        assert diamond.is_preferred("a", "b")
        assert diamond.is_preferred("a", "d")
        assert not diamond.is_preferred("b", "c")
        assert not diamond.is_preferred("d", "a")

    def test_is_preferred_is_irreflexive(self, diamond):
        assert not diamond.is_preferred("b", "b")
        assert diamond.is_preferred_or_equal("b", "b")

    def test_compare(self, diamond):
        assert diamond.compare("a", "d") == -1
        assert diamond.compare("d", "a") == 1
        assert diamond.compare("b", "b") == 0
        assert diamond.compare("b", "c") is None

    def test_are_comparable(self, diamond):
        assert diamond.are_comparable("a", "d")
        assert not diamond.are_comparable("b", "c")

    def test_reachability_updates_after_add_edge(self, diamond):
        assert not diamond.is_preferred("b", "c")
        diamond.add_edge("b", "c")
        assert diamond.is_preferred("b", "c")

    def test_unknown_value_raises(self, diamond):
        with pytest.raises(UnknownValueError):
            diamond.is_preferred("a", "z")


class TestStructure:
    def test_roots_and_leaves(self, example_dag):
        assert example_dag.roots() == ("a",)
        assert set(example_dag.leaves()) == {"h", "i"}

    def test_degrees(self, example_dag):
        assert example_dag.out_degree("a") == 3
        assert example_dag.in_degree("a") == 0
        assert example_dag.in_degree("g") == 4

    def test_height_of_chain(self):
        chain = PartialOrderDAG("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
        assert chain.height() == 3

    def test_height_of_antichain_is_zero(self):
        assert PartialOrderDAG("abc", []).height() == 0

    def test_transitive_reduction_removes_shortcuts(self):
        dag = PartialOrderDAG("abc", [("a", "b"), ("b", "c"), ("a", "c")])
        reduced = dag.transitive_reduction()
        assert set(reduced.edges) == {("a", "b"), ("b", "c")}
        # Reachability is preserved.
        assert reduced.is_preferred("a", "c")

    def test_transitive_closure_edges(self):
        dag = PartialOrderDAG("abc", [("a", "b"), ("b", "c")])
        assert set(dag.transitive_closure_edges()) == {("a", "b"), ("a", "c"), ("b", "c")}

    def test_restrict_preserves_indirect_preferences(self):
        chain = PartialOrderDAG("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
        restricted = chain.restrict(["a", "c", "d"])
        assert set(restricted.values) == {"a", "c", "d"}
        assert restricted.is_preferred("a", "c")
        assert restricted.is_preferred("a", "d")
        # Hasse property: no redundant edge a -> d.
        assert ("a", "d") not in restricted.edges

    def test_relabel(self):
        dag = PartialOrderDAG(["a", "b"], [("a", "b")])
        relabeled = dag.relabel({"a": 1, "b": 2})
        assert relabeled.is_preferred(1, 2)

    def test_copy_is_independent(self):
        dag = PartialOrderDAG(["a", "b", "c"], [("a", "b")])
        clone = dag.copy()
        clone.add_edge("b", "c")
        assert not dag.is_preferred("b", "c")
        assert clone.is_preferred("b", "c")


class TestCachedClosure:
    """The cached topological order and closure bitmasks follow ``add_edge``."""

    VALUES = ("a", "b", "c", "d", "e")
    EDGES = [("a", "b"), ("a", "c"), ("b", "d")]

    def fresh(self, *extra):
        return PartialOrderDAG(self.VALUES, [*self.EDGES, *extra])

    def assert_same_relation(self, dag, expected):
        assert dag_signature(dag) == dag_signature(expected)
        assert dag.depths() == expected.depths()
        assert dag.topological_order() == expected.topological_order()
        for x in self.VALUES:
            assert dag.descendants(x) == expected.descendants(x)
            assert dag.ancestors(x) == expected.ancestors(x)
            for y in self.VALUES:
                assert dag.is_preferred(x, y) == expected.is_preferred(x, y)

    def read_everything(self, dag):
        """Fill every cache the DAG keeps."""
        dag_signature(dag)
        dag.depths()
        for value in self.VALUES:
            dag.descendants(value)

    def test_add_edge_refreshes_signature_and_closure(self):
        dag = self.fresh()
        self.read_everything(dag)
        before = dag_signature(dag)
        dag.add_edge("d", "e")
        assert dag_signature(dag) != before
        self.assert_same_relation(dag, self.fresh(("d", "e")))
        assert dag.is_preferred("a", "e")
        assert dag.depths()["e"] == 3

    def test_implied_edge_keeps_the_signature(self):
        dag = self.fresh()
        before = dag_signature(dag)
        dag.add_edge("a", "d")
        assert dag_signature(dag) == before
        self.assert_same_relation(dag, self.fresh(("a", "d")))

    def test_duplicate_edge_changes_nothing(self):
        dag = self.fresh()
        self.read_everything(dag)
        dag.add_edge("a", "b")
        assert dag.num_edges == len(self.EDGES)
        self.assert_same_relation(dag, self.fresh())

    def test_rejected_cyclic_edge_leaves_no_stale_state(self):
        dag = self.fresh()
        self.read_everything(dag)
        with pytest.raises(CycleError):
            dag.add_edge("d", "a")
        assert dag.edges == self.fresh().edges
        self.assert_same_relation(dag, self.fresh())
        # The DAG stays usable: a later valid edge still lands.
        dag.add_edge("c", "d")
        self.assert_same_relation(dag, self.fresh(("c", "d")))

    def test_rejected_cyclic_edge_before_any_read(self):
        dag = self.fresh()
        with pytest.raises(CycleError):
            dag.add_edge("b", "a")
        self.assert_same_relation(dag, self.fresh())

    def test_reach_bits_are_the_reflexive_closure(self):
        dag = self.fresh(("d", "e"))
        for row, x in enumerate(self.VALUES):
            for column, y in enumerate(self.VALUES):
                expected = dag.is_preferred_or_equal(x, y)
                assert (dag.reach_bits[row] >> column & 1 == 1) == expected

    def test_closure_edges_follow_insertion_order(self):
        dag = self.fresh(("d", "e"))
        assert dag.transitive_closure_edges() == [
            ("a", "b"), ("a", "c"), ("a", "d"), ("a", "e"), ("b", "d"), ("b", "e"), ("d", "e"),
        ]
