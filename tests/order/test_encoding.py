"""Unit tests for the TSS domain encoding."""

import pytest

from repro.exceptions import UnknownValueError
from repro.order.builders import antichain, chain
from repro.order.encoding import encode_domain
from repro.order.toposort import is_topological


class TestOrdinals:
    def test_ordinals_form_a_permutation(self, example_encoding, example_dag):
        ordinals = example_encoding.ordinals
        assert sorted(ordinals.values()) == list(range(1, len(example_dag) + 1))

    def test_order_is_topological(self, example_encoding, example_dag):
        assert is_topological(example_dag, list(example_encoding.order))

    def test_ordinal_respects_preferences(self, example_encoding, example_dag):
        for better, worse in example_dag.edges:
            assert example_encoding.ordinal(better) < example_encoding.ordinal(worse)

    def test_value_at_is_inverse_of_ordinal(self, example_encoding, example_dag):
        for value in example_dag.values:
            assert example_encoding.value_at(example_encoding.ordinal(value)) == value

    def test_value_at_out_of_range(self, example_encoding):
        with pytest.raises(UnknownValueError):
            example_encoding.value_at(0)
        with pytest.raises(UnknownValueError):
            example_encoding.value_at(100)

    def test_unknown_value_raises(self, example_encoding):
        with pytest.raises(UnknownValueError):
            example_encoding.ordinal("nope")
        with pytest.raises(UnknownValueError):
            example_encoding.interval_set("nope")

    def test_cardinality(self, example_encoding, example_dag):
        assert example_encoding.cardinality == len(example_dag)


class TestPreferences:
    def test_t_prefers_equals_reachability(self, example_encoding, example_dag):
        for x in example_dag.values:
            for y in example_dag.values:
                assert example_encoding.t_prefers(x, y) == example_dag.is_preferred(x, y)

    def test_t_prefers_or_equal(self, example_encoding):
        assert example_encoding.t_prefers_or_equal("a", "a")
        assert example_encoding.t_prefers_or_equal("a", "i")

    def test_m_prefers_implies_t_prefers(self, example_encoding, example_dag):
        for x in example_dag.values:
            for y in example_dag.values:
                if x != y and example_encoding.m_prefers(x, y):
                    assert example_encoding.t_prefers(x, y)

    def test_post_of_membership_form(self, example_encoding, example_dag):
        """x t-prefers-or-equals y  <=>  post(y) covered by intervals(x)."""
        for x in example_dag.values:
            for y in example_dag.values:
                expected = example_encoding.t_prefers_or_equal(x, y)
                got = example_encoding.interval_set(x).contains_point(example_encoding.post_of(y))
                assert got == expected

    def test_chain_is_fully_captured_by_the_tree(self):
        encoding = encode_domain(chain(list("abcd")))
        for x in "abcd":
            for y in "abcd":
                assert encoding.m_prefers(x, y) == encoding.t_prefers(x, y)

    def test_antichain_has_no_preferences(self):
        encoding = encode_domain(antichain(list("abc")))
        assert not any(encoding.t_prefers(x, y) for x in "abc" for y in "abc")


class TestRangesAndStrata:
    def test_values_in_range(self, example_encoding):
        values = example_encoding.values_in_range(1, 3)
        assert values == list(example_encoding.order[:3])
        assert example_encoding.values_in_range(8, 99) == list(example_encoding.order[7:])

    def test_range_interval_set_covers_every_member(self, example_encoding):
        merged = example_encoding.range_interval_set(2, 5)
        for value in example_encoding.values_in_range(2, 5):
            assert merged.covers(example_encoding.interval_set(value))

    def test_uncovered_levels_are_non_negative(self, example_encoding):
        assert all(level >= 0 for level in example_encoding.uncovered.values())
        assert example_encoding.max_uncovered_level >= 1  # the example has non-tree edges

    def test_completely_covered_values_exist(self, example_encoding):
        assert example_encoding.is_completely_covered("a")

    def test_order_is_the_dags_topological_order(self, example_dag):
        assert encode_domain(example_dag).order == example_dag.topological_order()
