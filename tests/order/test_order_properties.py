"""Property-based tests for the partial-order substrate (hypothesis)."""

from hypothesis import given, settings, strategies as st

from repro.core.dyadic import DyadicIntervalCache
from repro.order.encoding import encode_domain
from repro.order.intervals import IntervalSet, mask_bounds
from repro.order.propagation import propagate_intervals, reachability_intervals
from repro.order.spanning_tree import extract_spanning_tree
from repro.order.toposort import is_topological

from tests.conftest import random_dag_strategy


@settings(max_examples=60, deadline=None)
@given(dag=random_dag_strategy(max_values=12))
def test_topological_order_takes_the_smallest_ready_index(dag):
    """The order is topological and, at every step, takes the ready value
    (all predecessors placed) with the smallest insertion index."""
    order = dag.topological_order()
    assert is_topological(dag, order)
    placed: set = set()
    for value in order:
        ready = [
            v for v in dag.values
            if v not in placed and all(p in placed for p in dag.predecessors(v))
        ]
        assert value == min(ready, key=dag.index_of)
        placed.add(value)


@settings(max_examples=60, deadline=None)
@given(dag=random_dag_strategy(max_values=12))
def test_propagation_equals_reachability_intervals(dag):
    tree = extract_spanning_tree(dag)
    assert propagate_intervals(tree) == reachability_intervals(tree)


@settings(max_examples=60, deadline=None)
@given(dag=random_dag_strategy(max_values=10))
def test_t_preference_is_exactly_reachability(dag):
    encoding = encode_domain(dag)
    for x in dag.values:
        for y in dag.values:
            if x == y:
                continue
            assert encoding.t_prefers(x, y) == dag.is_preferred(x, y)


@settings(max_examples=60, deadline=None)
@given(dag=random_dag_strategy(max_values=10))
def test_m_preference_is_sound_but_possibly_incomplete(dag):
    """Spanning-tree preference never invents a preference that is not in the DAG."""
    encoding = encode_domain(dag)
    for x in dag.values:
        for y in dag.values:
            if x != y and encoding.m_prefers(x, y):
                assert dag.is_preferred(x, y)


@settings(max_examples=60, deadline=None)
@given(dag=random_dag_strategy(max_values=10))
def test_dominators_never_sit_in_higher_strata(dag):
    encoding = encode_domain(dag)
    for x in dag.values:
        for y in dag.values:
            if dag.is_preferred(x, y):
                assert encoding.uncovered[x] <= encoding.uncovered[y]


@settings(max_examples=60, deadline=None)
@given(dag=random_dag_strategy(max_values=10))
def test_range_interval_set_covers_each_member(dag):
    encoding = encode_domain(dag)
    n = encoding.cardinality
    merged = encoding.range_interval_set(1, n)
    for value in dag.values:
        assert merged.covers(encoding.interval_set(value))


@settings(max_examples=80, deadline=None)
@given(points=st.lists(st.integers(min_value=1, max_value=60), max_size=40))
def test_interval_set_from_points_round_trips(points):
    interval_set = IntervalSet.from_points(points)
    assert sorted(interval_set.points()) == sorted(set(points))


@settings(max_examples=80, deadline=None)
@given(
    a=st.sets(st.integers(min_value=1, max_value=30), max_size=20),
    b=st.sets(st.integers(min_value=1, max_value=30), max_size=20),
)
def test_interval_set_covers_equals_subset(a, b):
    set_a = IntervalSet.from_points(a)
    set_b = IntervalSet.from_points(b)
    assert set_a.covers(set_b) == (b <= a)


# --------------------------------------------------------------------- #
# Bitmask form of the interval sets (the t-dominance hot path's encoding)
# --------------------------------------------------------------------- #
def _bits(mask):
    return {p for p in range(mask.bit_length()) if mask >> p & 1}


@settings(max_examples=40, deadline=None)
@given(dag=random_dag_strategy(max_values=80))
def test_reach_masks_are_the_reachability_intervals(dag):
    """Propagated masks hold exactly the postorder numbers each value reaches
    (domains beyond 64 values cross machine-word boundaries)."""
    encoding = encode_domain(dag)
    expected = reachability_intervals(encoding.tree)
    for value in dag.values:
        assert _bits(encoding.reach_masks[value]) == set(expected[value].points())
        assert encoding.interval_set(value) == expected[value]


@settings(max_examples=80, deadline=None)
@given(points=st.sets(st.integers(min_value=0, max_value=200), max_size=60))
def test_interval_set_mask_round_trips(points):
    interval_set = IntervalSet.from_points(points)
    mask = interval_set.to_mask()
    assert _bits(mask) == points
    assert IntervalSet.from_mask(mask) == interval_set
    if points:
        bounds = interval_set.bounding_interval()
        assert mask_bounds(mask) == (bounds.low, bounds.high)


@settings(max_examples=40, deadline=None)
@given(dag=random_dag_strategy(max_values=12))
def test_range_mask_is_the_or_over_the_range(dag):
    encoding = encode_domain(dag)
    cache = DyadicIntervalCache(encoding)
    n = encoding.cardinality
    for low in range(1, n + 1):
        for high in range(low, n + 1):
            expected = 0
            for value in encoding.values_in_range(low, high):
                expected |= encoding.reach_masks[value]
            assert encoding.range_mask(low, high) == expected
            assert cache.range_mask(low, high) == expected


@settings(max_examples=60, deadline=None)
@given(dag=random_dag_strategy(max_values=12))
def test_mask_containment_equals_covers(dag):
    encoding = encode_domain(dag)
    masks = encoding.reach_masks
    for x in dag.values:
        for y in dag.values:
            contained = masks[x] & masks[y] == masks[y]
            assert contained == encoding.interval_set(x).covers(encoding.interval_set(y))


@settings(max_examples=80, deadline=None)
@given(
    a=st.sets(st.integers(min_value=1, max_value=70), max_size=30),
    b=st.sets(st.integers(min_value=1, max_value=70), max_size=30),
)
def test_mask_containment_equals_covers_on_arbitrary_sets(a, b):
    set_a, set_b = IntervalSet.from_points(a), IntervalSet.from_points(b)
    mask_a, mask_b = set_a.to_mask(), set_b.to_mask()
    assert (mask_a & mask_b == mask_b) == set_a.covers(set_b)
