"""Property tests for ``dag_signature``: one key per preference relation."""

import random
import sys
import threading

from hypothesis import given, settings, strategies as st

from repro.engine.encodings import EncodingCache, dag_signature
from repro.order.builders import paper_example_dag
from repro.order.dag import PartialOrderDAG

from tests.conftest import random_dag_strategy


def closure_dag(dag: PartialOrderDAG) -> PartialOrderDAG:
    return PartialOrderDAG(dag.values, dag.transitive_closure_edges())


def closure(dag: PartialOrderDAG) -> frozenset:
    return frozenset(dag.transitive_closure_edges())


@st.composite
def respecified(draw, dag: PartialOrderDAG) -> PartialOrderDAG:
    """The same relation over the same values: some closure edges on top of
    the Hasse diagram, shuffled, with repeats."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    hasse = dag.transitive_reduction().edges
    implied = [edge for edge in dag.transitive_closure_edges() if rng.random() < 0.5]
    edges = hasse + implied + [edge for edge in hasse if rng.random() < 0.3]
    rng.shuffle(edges)
    return PartialOrderDAG(dag.values, edges)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), dag=random_dag_strategy(max_values=12))
def test_every_specification_of_one_relation_shares_a_key(data, dag):
    key = dag_signature(dag)
    assert dag_signature(dag.transitive_reduction()) == key
    assert dag_signature(closure_dag(dag)) == key
    assert dag_signature(data.draw(respecified(dag))) == key


@settings(max_examples=80, deadline=None)
@given(data=st.data(), dag=random_dag_strategy(max_values=12))
def test_an_edge_the_closure_does_not_imply_changes_the_key(data, dag):
    incomparable = [
        (x, y)
        for x in dag.values
        for y in dag.values
        if x != y and not dag.are_comparable(x, y)
    ]
    if not incomparable:
        return
    better, worse = data.draw(st.sampled_from(incomparable))
    key = dag_signature(dag)
    dag.add_edge(better, worse)
    assert dag_signature(dag) != key
    assert dag_signature(dag) == dag_signature(closure_dag(dag))


@st.composite
def dag_pairs(draw):
    """Two DAGs over the same values: unrelated, or one respecifying the other."""
    first = draw(random_dag_strategy(max_values=8))
    if draw(st.booleans()):
        return first, draw(respecified(first))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    probability = draw(st.floats(min_value=0.0, max_value=0.9))
    order = list(first.values)
    rng.shuffle(order)
    edges = [
        (order[i], order[j])
        for i in range(len(order))
        for j in range(i + 1, len(order))
        if rng.random() < probability
    ]
    return first, PartialOrderDAG(first.values, edges)


@settings(max_examples=150, deadline=None)
@given(pair=dag_pairs())
def test_keys_are_equal_exactly_when_closures_are(pair):
    first, second = pair
    assert (dag_signature(first) == dag_signature(second)) == (
        closure(first) == closure(second)
    )


def test_threads_sharing_one_dag_get_one_key():
    """Eight threads race to fill one DAG's closure cache; all read one key."""
    rng = random.Random(5)
    values = list(range(60))
    edges = [(i, j) for i in values for j in values[i + 1 :] if rng.random() < 0.1]
    expected = dag_signature(PartialOrderDAG(values, edges))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            shared = PartialOrderDAG(values, edges)  # closure not computed yet
            barrier = threading.Barrier(8, timeout=30)
            keys = []

            def read():
                barrier.wait()
                keys.append(dag_signature(shared))

            threads = [threading.Thread(target=read) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert keys == [expected] * 8
    finally:
        sys.setswitchinterval(interval)


def test_a_cache_miss_propagates_the_interval_masks():
    """A miss builds the whole encoding, masks included, so the encoding
    span measures interval propagation; a hit returns the same object."""
    dags = (paper_example_dag(),)
    cache = EncodingCache(4)
    (encoding,) = cache.encodings_for(dags)
    assert "reach_masks" in vars(encoding)
    assert cache.encodings_for(dags)[0] is encoding
