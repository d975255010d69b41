"""Caching of past dynamic skyline query results (Section V-B).

Dynamic queries that specify the same partial orders produce the same
skyline, so their results can simply be reused.  The cache key canonicalizes
each query DAG into its domain values plus its transitively closed preference
pairs, which makes two specifications that imply the same preferences (e.g. a
Hasse diagram versus its transitive closure) hit the same entry.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping, Sequence

from repro.engine.lru import LRUDict
from repro.exceptions import QueryError
from repro.order.dag import PartialOrderDAG
from repro.skyline.base import SkylineResult

Value = Hashable

CacheKey = tuple[tuple[tuple[Value, ...], frozenset[tuple[Value, Value]]], ...]

#: A dynamic query's preferences: PO attribute name -> DAG, or the DAGs in
#: schema order.
QuerySpec = Mapping[str, PartialOrderDAG] | Sequence[PartialOrderDAG]


def resolve_partial_orders(
    partial_orders: QuerySpec, attribute_names: Sequence[str]
) -> list[PartialOrderDAG]:
    """The query's DAGs in schema order, one per PO attribute name."""
    if isinstance(partial_orders, Mapping):
        missing = [name for name in attribute_names if name not in partial_orders]
        if missing:
            raise QueryError(f"query does not specify a partial order for: {missing}")
        return [partial_orders[name] for name in attribute_names]
    dags = list(partial_orders)
    if len(dags) != len(attribute_names):
        raise QueryError(
            f"query specifies {len(dags)} partial orders, schema has {len(attribute_names)}"
        )
    return dags


def canonical_query_key(partial_orders: QuerySpec, attribute_names: Sequence[str]) -> CacheKey:
    """A hashable, order-insensitive representation of one dynamic query."""
    return tuple(
        (tuple(sorted(dag.values, key=repr)), frozenset(dag.transitive_closure_edges()))
        for dag in resolve_partial_orders(partial_orders, attribute_names)
    )


class DynamicQueryCache:
    """A small LRU cache of dynamic query results keyed by their partial orders."""

    def __init__(self, capacity: int = 64) -> None:
        self._entries: LRUDict[CacheKey, SkylineResult] = LRUDict(capacity)
        self.hits = 0
        self.misses = 0

    @property
    def capacity(self) -> int:
        return self._entries.capacity

    def __len__(self) -> int:
        return len(self._entries)

    def get(
        self, partial_orders: QuerySpec, attribute_names: Sequence[str]
    ) -> SkylineResult | None:
        result = self._entries.get(canonical_query_key(partial_orders, attribute_names))
        if result is None:
            self.misses += 1
        else:
            self.hits += 1
        return result

    def put(
        self,
        partial_orders: QuerySpec,
        attribute_names: Sequence[str],
        result: SkylineResult,
    ) -> None:
        self._entries[canonical_query_key(partial_orders, attribute_names)] = result

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
