"""Unit tests for the dyadic-range interval-set mask cache."""

import pytest

from repro.core.dyadic import DyadicIntervalCache
from repro.order.builders import chain, random_dag
from repro.order.encoding import encode_domain


@pytest.fixture
def cache(example_encoding):
    return DyadicIntervalCache(example_encoding)


class TestDecomposition:
    def test_full_domain_range(self, cache, example_encoding):
        merged = cache.range_mask(1, example_encoding.cardinality)
        for value in example_encoding.order:
            mask = example_encoding.reach_mask(value)
            assert merged & mask == mask

    def test_matches_direct_union_for_every_range(self, cache, example_encoding):
        n = example_encoding.cardinality
        for low in range(1, n + 1):
            for high in range(low, n + 1):
                assert cache.range_mask(low, high) == example_encoding.range_mask(low, high)

    def test_single_ordinal_range(self, cache, example_encoding):
        for ordinal in range(1, example_encoding.cardinality + 1):
            value = example_encoding.value_at(ordinal)
            assert cache.range_mask(ordinal, ordinal) == example_encoding.reach_mask(value)

    def test_out_of_bounds_ranges_are_clamped(self, cache, example_encoding):
        full = cache.range_mask(1, example_encoding.cardinality)
        assert cache.range_mask(-5, 999) == full

    def test_empty_range(self, cache):
        assert cache.range_mask(5, 3) == 0

    def test_decompose_uses_logarithmically_many_pieces(self, cache):
        pieces = cache._decompose(2, 9)
        covered = sorted(p for size, start in pieces for p in range(start, start + size))
        assert covered == list(range(2, 10))
        assert len(pieces) <= 2 * 4  # 2 * log2(padded size)

    def test_cache_size_is_linear(self, example_encoding):
        cache = DyadicIntervalCache(example_encoding)
        # At most 2 * padded domain size entries (a complete binary tree).
        assert cache.num_cached_ranges <= 2 * 2 * example_encoding.cardinality


class TestOtherDomains:
    def test_chain_domain(self):
        encoding = encode_domain(chain([f"v{i}" for i in range(10)]))
        cache = DyadicIntervalCache(encoding)
        for low in range(1, 11):
            for high in range(low, 11):
                assert cache.range_mask(low, high) == encoding.range_mask(low, high)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_domains(self, seed):
        encoding = encode_domain(random_dag(13, edge_probability=0.25, seed=seed))
        cache = DyadicIntervalCache(encoding)
        n = encoding.cardinality
        for low in range(1, n + 1, 3):
            for high in range(low, n + 1, 2):
                assert cache.range_mask(low, high) == encoding.range_mask(low, high)
