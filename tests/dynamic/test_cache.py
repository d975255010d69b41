"""Unit tests for the dynamic query-result cache."""

import pytest

from repro.dynamic.cache import DynamicQueryCache, canonical_query_key, resolve_partial_orders
from repro.exceptions import QueryError
from repro.order.dag import PartialOrderDAG
from repro.skyline.base import SkylineResult, SkylineStats


def make_result(ids):
    return SkylineResult(skyline_ids=list(ids), stats=SkylineStats())


@pytest.fixture
def hasse_and_closure():
    hasse = PartialOrderDAG("abc", [("a", "b"), ("b", "c")])
    closure = PartialOrderDAG("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    return hasse, closure


class TestCanonicalKey:
    def test_equivalent_specifications_share_a_key(self, hasse_and_closure):
        hasse, closure = hasse_and_closure
        assert canonical_query_key({"p": hasse}, ["p"]) == canonical_query_key({"p": closure}, ["p"])

    def test_different_preferences_differ(self, hasse_and_closure):
        hasse, _ = hasse_and_closure
        other = PartialOrderDAG("abc", [("c", "b")])
        assert canonical_query_key({"p": hasse}, ["p"]) != canonical_query_key({"p": other}, ["p"])

    def test_sequence_and_mapping_agree(self, hasse_and_closure):
        hasse, _ = hasse_and_closure
        assert canonical_query_key({"p": hasse}, ["p"]) == canonical_query_key([hasse], ["p"])

    def test_missing_attribute_raises(self, hasse_and_closure):
        hasse, _ = hasse_and_closure
        with pytest.raises(QueryError):
            canonical_query_key({"q": hasse}, ["p"])
        with pytest.raises(QueryError):
            canonical_query_key([hasse, hasse], ["p"])


class TestResolvePartialOrders:
    def test_mapping_is_read_in_schema_order(self):
        first, second = PartialOrderDAG("ab", [("a", "b")]), PartialOrderDAG("xy", [])
        resolved = resolve_partial_orders({"q": second, "p": first}, ["p", "q"])
        assert resolved[0] is first and resolved[1] is second

    def test_names_outside_the_schema_are_ignored(self, hasse_and_closure):
        hasse, closure = hasse_and_closure
        assert resolve_partial_orders({"p": hasse, "extra": closure}, ["p"]) == [hasse]

    def test_sequence_is_taken_as_schema_order(self, hasse_and_closure):
        hasse, closure = hasse_and_closure
        assert resolve_partial_orders((closure, hasse), ["p", "q"]) == [closure, hasse]

    def test_missing_name_is_reported(self, hasse_and_closure):
        hasse, _ = hasse_and_closure
        with pytest.raises(QueryError, match=r"does not specify a partial order for: \['q'\]"):
            resolve_partial_orders({"p": hasse}, ["p", "q"])

    def test_sequence_length_is_checked(self, hasse_and_closure):
        hasse, _ = hasse_and_closure
        with pytest.raises(QueryError, match="specifies 1 partial orders, schema has 2"):
            resolve_partial_orders([hasse], ["p", "q"])


class TestCache:
    def test_put_get_round_trip(self, hasse_and_closure):
        hasse, closure = hasse_and_closure
        cache = DynamicQueryCache()
        cache.put({"p": hasse}, ["p"], make_result([1, 2]))
        hit = cache.get({"p": closure}, ["p"])
        assert hit is not None and hit.skyline_ids == [1, 2]
        assert cache.hits == 1 and cache.misses == 0

    def test_miss_counts(self, hasse_and_closure):
        hasse, _ = hasse_and_closure
        cache = DynamicQueryCache()
        assert cache.get({"p": hasse}, ["p"]) is None
        assert cache.misses == 1
        assert cache.hit_rate == 0.0

    def test_lru_eviction(self):
        cache = DynamicQueryCache(capacity=2)
        dags = [PartialOrderDAG("ab", [("a", "b")] if i % 2 else []) for i in range(2)]
        third = PartialOrderDAG("ab", [("b", "a")])
        cache.put({"p": dags[0]}, ["p"], make_result([0]))
        cache.put({"p": dags[1]}, ["p"], make_result([1]))
        cache.put({"p": third}, ["p"], make_result([2]))
        assert len(cache) == 2
        assert cache.get({"p": dags[0]}, ["p"]) is None

    def test_a_hit_refreshes_recency(self):
        cache = DynamicQueryCache(capacity=2)
        first, second, third = (
            PartialOrderDAG("ab", edges) for edges in ([], [("a", "b")], [("b", "a")])
        )
        cache.put({"p": first}, ["p"], make_result([0]))
        cache.put({"p": second}, ["p"], make_result([1]))
        assert cache.get({"p": first}, ["p"]) is not None
        cache.put({"p": third}, ["p"], make_result([2]))
        assert cache.get({"p": second}, ["p"]) is None
        assert cache.get({"p": first}, ["p"]).skyline_ids == [0]
        assert cache.capacity == 2 and len(cache) == 2

    def test_invalid_capacity(self):
        with pytest.raises(QueryError):
            DynamicQueryCache(capacity=0)

    def test_hit_rate(self, hasse_and_closure):
        hasse, _ = hasse_and_closure
        cache = DynamicQueryCache()
        cache.put({"p": hasse}, ["p"], make_result([1]))
        cache.get({"p": hasse}, ["p"])
        cache.get({"p": PartialOrderDAG("abc", [])}, ["p"])
        assert cache.hit_rate == pytest.approx(0.5)
