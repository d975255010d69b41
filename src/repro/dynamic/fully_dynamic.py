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
(the resolved partial orders' topology key + the ideal values) makes
repeated specifications free, mirroring the caching discussion in the paper.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.core.stss import stss_skyline
from repro.data.dataset import Dataset
from repro.data.schema import PartialOrderAttribute, Schema, TotalOrderAttribute
from repro.dynamic.cache import DynamicQueryCache
from repro.dynamic.groups import require_dataset
from repro.engine.encodings import QuerySpec, resolve_query_dags
from repro.exceptions import QueryError
from repro.order.dag import PartialOrderDAG
from repro.skyline.base import SkylineResult


def _resolve_ideal_values(
    schema: Schema, ideal_values: Mapping[str, float] | Sequence[float]
) -> tuple[float, ...]:
    """The query's ideal values, one per TO attribute in schema order."""
    to_attributes = schema.total_order_attributes
    if isinstance(ideal_values, Mapping):
        missing = [a.name for a in to_attributes if a.name not in ideal_values]
        if missing:
            raise QueryError(f"query does not specify an ideal value for: {missing}")
        return tuple(float(ideal_values[a.name]) for a in to_attributes)
    values = tuple(float(value) for value in ideal_values)
    if len(values) != len(to_attributes):
        raise QueryError(
            f"query specifies {len(values)} ideal values, schema has {len(to_attributes)} TO attributes"
        )
    return values


def distance_transformed_dataset(
    dataset: Dataset,
    partial_orders: QuerySpec,
    ideal_values: Mapping[str, float] | Sequence[float],
) -> Dataset:
    """The derived dataset whose TO attributes hold distances to the ideal values.

    Every TO attribute becomes ``|value - ideal|`` with "smaller is better"
    (regardless of the original attribute's direction — distance to the ideal
    is what the fully dynamic query minimizes); PO attributes keep their
    values but adopt the query's preference DAGs.
    """
    schema = dataset.schema
    return _derived_dataset(
        dataset,
        resolve_query_dags(schema.partial_order_attributes, partial_orders),
        _resolve_ideal_values(schema, ideal_values),
    )


def _derived_dataset(
    dataset: Dataset, dags: Sequence[PartialOrderDAG], ideal_values: Sequence[float]
) -> Dataset:
    """:func:`distance_transformed_dataset` for resolved DAGs and ideal values."""
    schema = dataset.schema
    dag_of = iter(dags)
    ideals = dict(zip(schema.total_order_positions, ideal_values))
    derived_schema = Schema(
        [
            PartialOrderAttribute(attribute.name, next(dag_of))
            if attribute.is_partial
            else TotalOrderAttribute(attribute.name, best="min")
            for attribute in schema.attributes
        ]
    )
    rows = [
        tuple(
            abs(float(value) - ideals[position]) if position in ideals else value
            for position, value in enumerate(record.values)
        )
        for record in dataset.records
    ]
    return Dataset(derived_schema, rows, validate=False)


def fully_dynamic_skyline(
    dataset: Dataset,
    partial_orders: QuerySpec,
    ideal_values: Mapping[str, float] | Sequence[float],
    **stss_options,
) -> SkylineResult:
    """Answer one fully dynamic skyline query (preferences + ideal TO values)."""
    derived = distance_transformed_dataset(
        require_dataset(dataset), partial_orders, ideal_values
    )
    return stss_skyline(derived, **stss_options)


class FullyDynamicEngine:
    """Answer fully dynamic queries over one dataset, caching repeated queries
    in a :class:`~repro.dynamic.cache.DynamicQueryCache` keyed on the
    preferences plus the ideal values."""

    def __init__(
        self,
        dataset: Dataset,
        *,
        cache_capacity: int = 32,
        **stss_options,
    ) -> None:
        self.dataset = require_dataset(dataset)
        self.stss_options = stss_options
        self._cache = DynamicQueryCache(cache_capacity)

    def query(
        self,
        partial_orders: QuerySpec,
        ideal_values: Mapping[str, float] | Sequence[float],
    ) -> SkylineResult:
        schema = self.dataset.schema
        ideals = _resolve_ideal_values(schema, ideal_values)
        return self._cache.answer(
            partial_orders,
            schema.partial_order_attributes,
            lambda dags: stss_skyline(
                _derived_dataset(self.dataset, dags, ideals), **self.stss_options
            ),
            ideals,
        )

    @property
    def hits(self) -> int:
        return self._cache.hits

    @property
    def misses(self) -> int:
        return self._cache.misses

    @property
    def hit_rate(self) -> float:
        return self._cache.hit_rate
