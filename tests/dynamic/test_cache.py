"""Unit tests for the dynamic query-result cache."""

import pytest

from repro.data.schema import PartialOrderAttribute
from repro.dynamic.cache import DynamicQueryCache
from repro.exceptions import QueryError
from repro.order.dag import PartialOrderDAG
from repro.skyline.base import SkylineResult, SkylineStats


def make_result(ids):
    return SkylineResult(skyline_ids=list(ids), stats=SkylineStats())


def po_attributes(domain, name="p"):
    """A schema's PO attributes: one attribute over ``domain``."""
    return (PartialOrderAttribute(name, PartialOrderDAG(domain, [])),)


@pytest.fixture
def hasse_and_closure():
    hasse = PartialOrderDAG("abc", [("a", "b"), ("b", "c")])
    closure = PartialOrderDAG("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    return hasse, closure


class TestCacheKey:
    def test_equivalent_specifications_share_an_entry(self, hasse_and_closure):
        hasse, closure = hasse_and_closure
        attributes = po_attributes("abc")
        cache = DynamicQueryCache()
        cache.put({"p": hasse}, attributes, make_result([1]))
        assert cache.get({"p": closure}, attributes).skyline_ids == [1]

    def test_value_order_does_not_matter(self, hasse_and_closure):
        hasse, _ = hasse_and_closure
        attributes = po_attributes("abc")
        cache = DynamicQueryCache()
        cache.put({"p": hasse}, attributes, make_result([1]))
        reversed_values = PartialOrderDAG("cba", [("b", "c"), ("a", "b")])
        assert cache.get({"p": reversed_values}, attributes).skyline_ids == [1]

    def test_outside_values_that_imply_the_same_order_hit(self, hasse_and_closure):
        hasse, _ = hasse_and_closure
        attributes = po_attributes("abc")
        cache = DynamicQueryCache()
        cache.put({"p": hasse}, attributes, make_result([1]))
        detour = PartialOrderDAG("abcz", [("a", "z"), ("z", "b"), ("b", "c")])
        assert cache.get({"p": detour}, attributes).skyline_ids == [1]

    def test_answer_computes_once_per_key(self, hasse_and_closure):
        hasse, closure = hasse_and_closure
        attributes = po_attributes("abc")
        cache = DynamicQueryCache()
        seen = []

        def compute(dags):
            seen.append(dags)
            return make_result([len(seen)])

        assert cache.answer({"p": hasse}, attributes, compute).skyline_ids == [1]
        assert cache.answer([closure], attributes, compute).skyline_ids == [1]
        assert len(seen) == 1 and seen[0][0] is hasse
        assert (cache.hits, cache.misses) == (1, 1)

    def test_different_preferences_miss(self, hasse_and_closure):
        hasse, _ = hasse_and_closure
        attributes = po_attributes("abc")
        cache = DynamicQueryCache()
        cache.put({"p": hasse}, attributes, make_result([1]))
        assert cache.get({"p": PartialOrderDAG("abc", [("c", "b")])}, attributes) is None

    def test_sequence_and_mapping_agree(self, hasse_and_closure):
        hasse, _ = hasse_and_closure
        attributes = po_attributes("abc")
        cache = DynamicQueryCache()
        cache.put({"p": hasse}, attributes, make_result([1]))
        assert cache.get([hasse], attributes) is not None

    def test_an_empty_mapping_keys_the_schema_dags(self):
        attributes = po_attributes("abc")
        cache = DynamicQueryCache()
        cache.put({}, attributes, make_result([1]))
        assert cache.get([attributes[0].dag], attributes) is not None

    def test_ideal_values_are_part_of_the_key(self, hasse_and_closure):
        hasse, _ = hasse_and_closure
        attributes = po_attributes("abc")
        cache = DynamicQueryCache()
        cache.put([hasse], attributes, make_result([1]), (1.0, 2.0))
        assert cache.get([hasse], attributes, (1.0, 3.0)) is None
        assert cache.get([hasse], attributes) is None
        assert cache.get([hasse], attributes, (1.0, 2.0)) is not None

    def test_invalid_specifications_raise(self, hasse_and_closure):
        hasse, _ = hasse_and_closure
        attributes = po_attributes("abc")
        cache = DynamicQueryCache()
        with pytest.raises(QueryError, match="unknown PO attributes"):
            cache.get({"q": hasse}, attributes)
        with pytest.raises(QueryError, match="gives 2 partial orders"):
            cache.put([hasse, hasse], attributes, make_result([]))
        assert cache.misses == 0 and len(cache) == 0


class TestCache:
    def test_put_get_round_trip(self, hasse_and_closure):
        hasse, closure = hasse_and_closure
        attributes = po_attributes("abc")
        cache = DynamicQueryCache()
        cache.put({"p": hasse}, attributes, make_result([1, 2]))
        hit = cache.get({"p": closure}, attributes)
        assert hit is not None and hit.skyline_ids == [1, 2]
        assert cache.hits == 1 and cache.misses == 0

    def test_miss_counts(self, hasse_and_closure):
        hasse, _ = hasse_and_closure
        cache = DynamicQueryCache()
        assert cache.get({"p": hasse}, po_attributes("abc")) is None
        assert cache.misses == 1
        assert cache.hit_rate == 0.0

    def test_lru_eviction(self):
        attributes = po_attributes("ab")
        cache = DynamicQueryCache(capacity=2)
        dags = [PartialOrderDAG("ab", [("a", "b")] if i % 2 else []) for i in range(2)]
        third = PartialOrderDAG("ab", [("b", "a")])
        cache.put({"p": dags[0]}, attributes, make_result([0]))
        cache.put({"p": dags[1]}, attributes, make_result([1]))
        cache.put({"p": third}, attributes, make_result([2]))
        assert len(cache) == 2
        assert cache.get({"p": dags[0]}, attributes) is None

    def test_a_hit_refreshes_recency(self):
        attributes = po_attributes("ab")
        cache = DynamicQueryCache(capacity=2)
        first, second, third = (
            PartialOrderDAG("ab", edges) for edges in ([], [("a", "b")], [("b", "a")])
        )
        cache.put({"p": first}, attributes, make_result([0]))
        cache.put({"p": second}, attributes, make_result([1]))
        assert cache.get({"p": first}, attributes) is not None
        cache.put({"p": third}, attributes, make_result([2]))
        assert cache.get({"p": second}, attributes) is None
        assert cache.get({"p": first}, attributes).skyline_ids == [0]
        assert cache.capacity == 2 and len(cache) == 2

    def test_invalid_capacity(self):
        with pytest.raises(QueryError):
            DynamicQueryCache(capacity=0)

    def test_hit_rate(self, hasse_and_closure):
        hasse, _ = hasse_and_closure
        attributes = po_attributes("abc")
        cache = DynamicQueryCache()
        cache.put({"p": hasse}, attributes, make_result([1]))
        cache.get({"p": hasse}, attributes)
        cache.get({"p": PartialOrderDAG("abc", [])}, attributes)
        assert cache.hit_rate == pytest.approx(0.5)
