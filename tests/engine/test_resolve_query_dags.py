"""Unit tests for ``resolve_query_dags``: the one reader of query preferences."""

import tracemalloc

import pytest

from repro.data.schema import PartialOrderAttribute, Schema, TotalOrderAttribute
from repro.engine.encodings import query_schema, resolve_query_dags, topology_key
from repro.exceptions import QueryError
from repro.order.dag import PartialOrderDAG


@pytest.fixture
def attributes():
    return (
        PartialOrderAttribute("p", PartialOrderDAG("abc", [("a", "b")])),
        PartialOrderAttribute("q", PartialOrderDAG("xy", [])),
    )


def test_a_mapping_is_read_in_schema_order(attributes):
    p_dag, q_dag = PartialOrderDAG("abc", []), PartialOrderDAG("xy", [("y", "x")])
    dags = resolve_query_dags(attributes, {"q": q_dag, "p": p_dag})
    assert dags[0] is p_dag and dags[1] is q_dag


def test_omitted_attributes_keep_the_schema_dag(attributes):
    q_dag = PartialOrderDAG("xy", [("y", "x")])
    dags = resolve_query_dags(attributes, {"q": q_dag})
    assert dags[0] is attributes[0].dag and dags[1] is q_dag
    assert resolve_query_dags(attributes, {}) == (attributes[0].dag, attributes[1].dag)


def test_a_sequence_is_taken_as_schema_order(attributes):
    p_dag, q_dag = PartialOrderDAG("abc", [("b", "a")]), PartialOrderDAG("xy", [("y", "x")])
    dags = resolve_query_dags(attributes, [p_dag, q_dag])
    assert dags[0] is p_dag and dags[1] is q_dag


def test_another_value_order_is_put_in_domain_order(attributes):
    shuffled = PartialOrderDAG("cba", [("c", "a")])
    resolved = resolve_query_dags(attributes, {"p": shuffled})[0]
    assert resolved.values == ("a", "b", "c") and resolved.edges == [("c", "a")]
    in_order = resolve_query_dags(attributes, {"p": PartialOrderDAG("abc", [("c", "a")])})
    assert topology_key((resolved, attributes[1].dag)) == topology_key(in_order)


def test_values_outside_the_domain_are_projected_away(attributes):
    wider = PartialOrderDAG("abcz", [("c", "z"), ("z", "a")])
    resolved = resolve_query_dags(attributes, {"p": wider})[0]
    assert resolved.values == ("a", "b", "c")
    # The preference implied through the outside value survives.
    assert resolved.edges == [("c", "a")]


def test_outside_values_cost_no_quadratic_closure(attributes):
    """A DAG padded with many outside values resolves in domain-sized memory:
    its own closure (``n**2 / 2`` bits, 50 MB here) is never built."""
    outside = list(range(20_000))
    chain = ["c", *outside, "a"]
    padded = PartialOrderDAG(["a", "b", "c", *outside], list(zip(chain, chain[1:])))
    tracemalloc.start()
    try:
        resolved = resolve_query_dags(attributes, {"p": padded})
        topology_key(resolved)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert resolved[0].edges == [("c", "a")]
    assert peak < 5_000_000


def test_unknown_names_are_rejected(attributes):
    with pytest.raises(QueryError, match=r"query names unknown PO attributes: \['extra'\]"):
        resolve_query_dags(attributes, {"p": attributes[0].dag, "extra": attributes[1].dag})


def test_the_sequence_length_is_checked(attributes):
    with pytest.raises(QueryError, match="query gives 1 partial orders, schema has 2 PO attributes"):
        resolve_query_dags(attributes, [attributes[0].dag])


def test_a_dag_must_cover_its_domain(attributes):
    with pytest.raises(QueryError, match=r"'p' is missing domain values: \['c'\]"):
        resolve_query_dags(attributes, {"p": PartialOrderDAG("ab", [])})
    with pytest.raises(QueryError, match=r"'q' is missing domain values: \['y'\]"):
        resolve_query_dags(attributes, [attributes[0].dag, PartialOrderDAG("xz", [])])


def test_the_key_is_semantic(attributes):
    hasse = PartialOrderDAG("abc", [("a", "b"), ("b", "c")])
    closure = PartialOrderDAG("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    assert topology_key(resolve_query_dags(attributes, {"p": hasse})) == topology_key(
        resolve_query_dags(attributes, [closure, attributes[1].dag])
    )


def test_query_schema_replaces_only_changed_dags(attributes):
    schema = Schema([TotalOrderAttribute("t"), *attributes])
    assert query_schema(schema, resolve_query_dags(attributes, {})) is schema
    q_dag = PartialOrderDAG("xy", [("y", "x")])
    replaced = query_schema(schema, resolve_query_dags(attributes, {"q": q_dag}))
    assert replaced["q"].dag is q_dag and replaced["p"].dag is attributes[0].dag
