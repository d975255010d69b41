"""Unit tests for fully dynamic skyline queries (preferences + ideal TO values)."""

import pytest

from repro.data.dataset import Dataset
from repro.data.schema import PartialOrderAttribute, Schema, TotalOrderAttribute
from repro.dynamic.fully_dynamic import (
    FullyDynamicEngine,
    distance_transformed_dataset,
    fully_dynamic_skyline,
)
from repro.exceptions import QueryError
from repro.order.builders import airline_preference_dag, airline_preference_dag_second
from repro.order.dag import PartialOrderDAG
from repro.skyline.bruteforce import brute_force_skyline


def reference_skyline(dataset, partial_orders, ideal_values):
    """Oracle: brute force over the distance-transformed dataset."""
    derived = distance_transformed_dataset(dataset, partial_orders, ideal_values)
    return frozenset(brute_force_skyline(derived).skyline_ids)


@pytest.fixture
def tickets(flight_dataset):
    return flight_dataset


class TestDistanceTransform:
    def test_to_values_become_distances(self, tickets, airline_dag):
        orders = {"airline": airline_dag}
        ideals = {"price": 1000.0, "stops": 1.0}
        derived = distance_transformed_dataset(tickets, orders, ideals)
        assert derived[0].values[0] == pytest.approx(800.0)   # |1800 - 1000|
        assert derived[0].values[1] == pytest.approx(1.0)     # |0 - 1|
        assert derived[0].values[2] == "a"

    def test_po_attributes_adopt_query_dags(self, tickets):
        query_dag = airline_preference_dag_second()
        derived = distance_transformed_dataset(
            tickets, {"airline": query_dag}, {"price": 0.0, "stops": 0.0}
        )
        assert derived.schema["airline"].dag is query_dag

    def test_max_attributes_become_distance_minimization(self, airline_dag):
        schema = Schema(
            [TotalOrderAttribute("rating", best="max"), PartialOrderAttribute("airline", airline_dag)]
        )
        dataset = Dataset(schema, [(9, "a"), (5, "a")])
        derived = distance_transformed_dataset(dataset, {"airline": airline_dag}, {"rating": 5.0})
        assert derived.schema["rating"].best == "min"
        assert derived[0].values[0] == pytest.approx(4.0)
        assert derived[1].values[0] == pytest.approx(0.0)


class TestFullyDynamicSkyline:
    def test_matches_reference_on_flight_data(self, tickets):
        orders = {"airline": airline_preference_dag()}
        ideals = {"price": 1200.0, "stops": 1.0}
        truth = reference_skyline(tickets, orders, ideals)
        result = fully_dynamic_skyline(tickets, orders, ideals)
        assert frozenset(result.skyline_ids) == truth

    def test_ideal_at_origin_reduces_to_ordinary_dynamic_query(self, tickets):
        """With ideal values at the domain minimum, distances equal the raw values."""
        from repro.dynamic.dtss import dtss_skyline

        orders = {"airline": airline_preference_dag_second()}
        ideals = {"price": 0.0, "stops": 0.0}
        full = fully_dynamic_skyline(tickets, orders, ideals)
        ordinary = dtss_skyline(tickets, orders)
        assert frozenset(full.skyline_ids) == frozenset(ordinary.skyline_ids)

    def test_sequence_specifications(self, tickets):
        orders = [airline_preference_dag()]
        ideals = [1200.0, 1.0]
        by_sequence = fully_dynamic_skyline(tickets, orders, ideals)
        by_mapping = fully_dynamic_skyline(
            tickets, {"airline": airline_preference_dag()}, {"price": 1200.0, "stops": 1.0}
        )
        assert frozenset(by_sequence.skyline_ids) == frozenset(by_mapping.skyline_ids)

    def test_different_ideals_change_the_result(self, tickets):
        orders = {"airline": airline_preference_dag()}
        cheap = fully_dynamic_skyline(tickets, orders, {"price": 0.0, "stops": 0.0})
        midrange = fully_dynamic_skyline(tickets, orders, {"price": 1400.0, "stops": 1.0})
        assert frozenset(cheap.skyline_ids) != frozenset(midrange.skyline_ids)

    def test_validation_errors(self, tickets):
        orders = {"airline": airline_preference_dag()}
        with pytest.raises(QueryError, match="unknown PO attributes"):
            fully_dynamic_skyline(tickets, {"nope": airline_preference_dag()}, [0.0, 0.0])
        with pytest.raises(QueryError):
            fully_dynamic_skyline(tickets, orders, {"price": 0.0})
        with pytest.raises(QueryError):
            fully_dynamic_skyline(tickets, orders, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_reference_on_synthetic_data(self, seed, small_workload):
        _, dataset = small_workload
        dag = dataset.schema.partial_order_attributes[0].dag
        values = list(dag.values)
        orders = {"po1": PartialOrderDAG(values, list(zip(values, values[1:])))}
        ideals = {"to1": 30.0 + seed * 10, "to2": 10.0}
        truth = reference_skyline(dataset, orders, ideals)
        result = fully_dynamic_skyline(dataset, orders, ideals)
        assert frozenset(result.skyline_ids) == truth


class TestFullyDynamicEngine:
    def test_cache_hits_for_repeated_queries(self, tickets):
        engine = FullyDynamicEngine(tickets)
        orders = {"airline": airline_preference_dag()}
        ideals = {"price": 1200.0, "stops": 1.0}
        first = engine.query(orders, ideals)
        second = engine.query(orders, ideals)
        assert second is first
        assert engine.hits == 1 and engine.misses == 1
        assert engine.hit_rate == pytest.approx(0.5)

    def test_equivalent_preference_specifications_share_cache_entries(self, tickets):
        engine = FullyDynamicEngine(tickets)
        hasse = PartialOrderDAG("abcd", [("a", "b"), ("b", "c")])
        closure = PartialOrderDAG("abcd", [("a", "b"), ("b", "c"), ("a", "c")])
        ideals = {"price": 500.0, "stops": 0.0}
        engine.query({"airline": hasse}, ideals)
        engine.query({"airline": closure}, ideals)
        assert engine.hits == 1
        engine.query({"airline": PartialOrderDAG("dcba", [("b", "c"), ("a", "b")])}, ideals)
        assert engine.hits == 2

    def test_cache_eviction(self, tickets):
        engine = FullyDynamicEngine(tickets, cache_capacity=1)
        orders = {"airline": airline_preference_dag()}
        engine.query(orders, {"price": 0.0, "stops": 0.0})
        engine.query(orders, {"price": 100.0, "stops": 0.0})
        engine.query(orders, {"price": 0.0, "stops": 0.0})
        assert engine.misses == 3

    def test_a_hit_refreshes_recency(self, tickets):
        engine = FullyDynamicEngine(tickets, cache_capacity=2)
        orders = {"airline": airline_preference_dag()}
        first, second, third = ({"price": p, "stops": 0.0} for p in (0.0, 100.0, 200.0))
        kept = engine.query(orders, first)
        engine.query(orders, second)
        assert engine.query(orders, first) is kept  # hit: first is now most recent
        engine.query(orders, third)  # evicts second, not first
        assert engine.query(orders, first) is kept
        engine.query(orders, second)
        assert (engine.hits, engine.misses) == (2, 4)
        assert engine.hit_rate == pytest.approx(2 / 6)

    def test_invalid_capacity(self, tickets):
        with pytest.raises(QueryError):
            FullyDynamicEngine(tickets, cache_capacity=0)
