"""Unit tests for the topological order and its helpers."""

import pytest

from repro.order.builders import antichain, chain
from repro.order.dag import PartialOrderDAG
from repro.order.toposort import is_topological, ordinal_map


@pytest.fixture
def diamond():
    return PartialOrderDAG("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])


class TestTopologicalOrder:
    def test_chain_sorts_to_itself(self):
        dag = chain(["x", "y", "z"])
        assert dag.topological_order() == ("x", "y", "z")

    def test_antichain_keeps_insertion_order(self):
        dag = antichain(["c", "a", "b"])
        assert dag.topological_order() == ("c", "a", "b")

    def test_ready_values_leave_by_insertion_index(self, diamond):
        # b and c become ready together; the smaller index goes first.
        dag = PartialOrderDAG("dcba", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
        assert dag.topological_order() == ("a", "c", "b", "d")
        assert diamond.topological_order() == ("a", "b", "c", "d")

    def test_paper_example_sorts_alphabetically(self, example_dag):
        """Figure 2(c)'s alphabetical order is the DAG's own order."""
        assert "".join(example_dag.topological_order()) == "abcdefghi"

    def test_paper_example_admits_alphabetical_order(self, example_dag):
        """Figure 2(c): a < b < ... < i is an admissible topological sort."""
        assert is_topological(example_dag, list("abcdefghi"))


class TestHelpers:
    def test_ordinal_map_is_one_based(self):
        ordinals = ordinal_map(["x", "y", "z"])
        assert ordinals == {"x": 1, "y": 2, "z": 3}

    def test_ordinal_map_custom_start(self):
        assert ordinal_map(["x"], start=5) == {"x": 5}

    def test_is_topological_rejects_wrong_length(self, diamond):
        assert not is_topological(diamond, ["a", "b", "c"])

    def test_is_topological_rejects_backward_edge(self, diamond):
        assert not is_topological(diamond, ["d", "c", "b", "a"])

    def test_is_topological_rejects_wrong_values(self, diamond):
        assert not is_topological(diamond, ["a", "b", "c", "x"])
