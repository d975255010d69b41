"""Fully dynamic skyline queries: query-specified preferences *and* ideal values.

Section V-B of the paper closes with the fully dynamic case: a query that
specifies a partial order for every PO attribute **and** an ideal value for
every TO attribute.  Dominance is then defined with respect to the query —
a record beats another when it is at least as close to the ideal value on
every TO attribute, preferred-or-equal on every PO attribute, and strictly
better somewhere.  The per-group local skylines pre-computed for ordinary
dynamic queries are no longer valid (the TO preferences changed), so the
skyline within each group must be recomputed; caching of past results still
applies.

The implementation re-expresses the query as a *static* PO skyline problem
over a derived dataset whose TO attributes hold the distances to the ideal
values, and answers it with sTSS.  A small LRU cache keyed by the full query
(ideal values + canonical partial orders) makes repeated specifications free,
mirroring the caching discussion in the paper.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping, Sequence

from repro.core.stss import stss_skyline
from repro.data.dataset import Dataset
from repro.data.schema import PartialOrderAttribute, Schema, TotalOrderAttribute
from repro.dynamic.cache import QuerySpec, canonical_query_key, resolve_partial_orders
from repro.dynamic.groups import require_dataset
from repro.engine.lru import LRUDict
from repro.exceptions import QueryError
from repro.order.dag import PartialOrderDAG
from repro.skyline.base import SkylineResult

Value = Hashable


def _resolve_partial_orders(
    schema: Schema, partial_orders: QuerySpec
) -> dict[str, PartialOrderDAG]:
    names = [a.name for a in schema.partial_order_attributes]
    return dict(zip(names, resolve_partial_orders(partial_orders, names)))


def _resolve_ideal_values(
    schema: Schema, ideal_values: Mapping[str, float] | Sequence[float]
) -> dict[str, float]:
    to_attributes = schema.total_order_attributes
    if isinstance(ideal_values, Mapping):
        missing = [a.name for a in to_attributes if a.name not in ideal_values]
        if missing:
            raise QueryError(f"query does not specify an ideal value for: {missing}")
        return {a.name: float(ideal_values[a.name]) for a in to_attributes}
    values = list(ideal_values)
    if len(values) != len(to_attributes):
        raise QueryError(
            f"query specifies {len(values)} ideal values, schema has {len(to_attributes)} TO attributes"
        )
    return {a.name: float(v) for a, v in zip(to_attributes, values)}


def distance_transformed_dataset(
    dataset: Dataset,
    partial_orders: dict[str, PartialOrderDAG],
    ideal_values: dict[str, float],
) -> Dataset:
    """The derived dataset whose TO attributes hold distances to the ideal values.

    Every TO attribute becomes ``|value - ideal|`` with "smaller is better"
    (regardless of the original attribute's direction — distance to the ideal
    is what the fully dynamic query minimizes); PO attributes keep their
    values but adopt the query's preference DAGs.
    """
    schema = dataset.schema
    attributes = []
    for attribute in schema.attributes:
        if attribute.is_partial:
            attributes.append(
                PartialOrderAttribute(attribute.name, partial_orders[attribute.name])
            )
        else:
            attributes.append(TotalOrderAttribute(attribute.name, best="min"))
    derived_schema = Schema(attributes)

    to_positions = set(schema.total_order_positions)
    rows = []
    for record in dataset.records:
        row = []
        for position, value in enumerate(record.values):
            if position in to_positions:
                name = schema.attributes[position].name
                row.append(abs(float(value) - ideal_values[name]))
            else:
                row.append(value)
        rows.append(tuple(row))
    return Dataset(derived_schema, rows, validate=False)


def fully_dynamic_skyline(
    dataset: Dataset,
    partial_orders: QuerySpec,
    ideal_values: Mapping[str, float] | Sequence[float],
    **stss_options,
) -> SkylineResult:
    """Answer one fully dynamic skyline query (preferences + ideal TO values)."""
    dataset = require_dataset(dataset)
    schema = dataset.schema
    resolved_orders = _resolve_partial_orders(schema, partial_orders)
    resolved_ideals = _resolve_ideal_values(schema, ideal_values)
    derived = distance_transformed_dataset(dataset, resolved_orders, resolved_ideals)
    return stss_skyline(derived, **stss_options)


class FullyDynamicEngine:
    """Answer fully dynamic queries over one dataset, caching repeated queries."""

    def __init__(
        self,
        dataset: Dataset,
        *,
        cache_capacity: int = 32,
        **stss_options,
    ) -> None:
        self.dataset = require_dataset(dataset)
        self.stss_options = stss_options
        self._cache: LRUDict[tuple, SkylineResult] = LRUDict(cache_capacity)
        self.hits = 0
        self.misses = 0

    def _key(
        self,
        partial_orders: dict[str, PartialOrderDAG],
        ideal_values: dict[str, float],
    ) -> tuple:
        names = [a.name for a in self.dataset.schema.partial_order_attributes]
        order_key = canonical_query_key(partial_orders, names)
        ideal_key = tuple(sorted(ideal_values.items()))
        return (order_key, ideal_key)

    def query(
        self,
        partial_orders: QuerySpec,
        ideal_values: Mapping[str, float] | Sequence[float],
    ) -> SkylineResult:
        schema = self.dataset.schema
        resolved_orders = _resolve_partial_orders(schema, partial_orders)
        resolved_ideals = _resolve_ideal_values(schema, ideal_values)
        key = self._key(resolved_orders, resolved_ideals)
        cached = self._cache.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        result = fully_dynamic_skyline(
            self.dataset, resolved_orders, resolved_ideals, **self.stss_options
        )
        self._cache[key] = result
        return result

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
