"""Caching of past dynamic skyline query results (Section V-B).

Dynamic queries that specify the same partial orders produce the same
skyline, so their results can simply be reused.  The cache resolves each
query through :func:`~repro.engine.encodings.resolve_query_dags` and keys it
on the :func:`~repro.engine.encodings.topology_key` of the resolved DAGs —
the batch engine's key — so two specifications that imply the same
preferences (e.g. a Hasse diagram versus its transitive closure, or the same
values listed in another order) hit the same entry.  A fully dynamic query
adds its ideal TO values to the key.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.data.schema import PartialOrderAttribute
from repro.engine.encodings import QuerySpec, TopologyKey, resolve_query_dags, topology_key
from repro.engine.lru import LRUDict
from repro.order.dag import PartialOrderDAG
from repro.skyline.base import SkylineResult

CacheKey = tuple[TopologyKey, tuple[float, ...]]


class DynamicQueryCache:
    """A small LRU cache of dynamic query results keyed by their partial orders.

    ``attributes`` are the schema's PO attributes; ``ideal_values`` are a
    fully dynamic query's ideal TO values in schema order (empty otherwise).
    """

    def __init__(self, capacity: int = 64) -> None:
        self._entries: LRUDict[CacheKey, SkylineResult] = LRUDict(capacity)
        self.hits = 0
        self.misses = 0

    @property
    def capacity(self) -> int:
        return self._entries.capacity

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def _resolve(
        partial_orders: QuerySpec,
        attributes: Sequence[PartialOrderAttribute],
        ideal_values: Sequence[float],
    ) -> tuple[tuple[PartialOrderDAG, ...], CacheKey]:
        dags = resolve_query_dags(attributes, partial_orders)
        return dags, (topology_key(dags), tuple(ideal_values))

    def _lookup(self, key: CacheKey) -> SkylineResult | None:
        result = self._entries.get(key)
        if result is None:
            self.misses += 1
        else:
            self.hits += 1
        return result

    def get(
        self,
        partial_orders: QuerySpec,
        attributes: Sequence[PartialOrderAttribute],
        ideal_values: Sequence[float] = (),
    ) -> SkylineResult | None:
        return self._lookup(self._resolve(partial_orders, attributes, ideal_values)[1])

    def put(
        self,
        partial_orders: QuerySpec,
        attributes: Sequence[PartialOrderAttribute],
        result: SkylineResult,
        ideal_values: Sequence[float] = (),
    ) -> None:
        self._entries[self._resolve(partial_orders, attributes, ideal_values)[1]] = result

    def answer(
        self,
        partial_orders: QuerySpec,
        attributes: Sequence[PartialOrderAttribute],
        compute: Callable[[tuple[PartialOrderDAG, ...]], SkylineResult],
        ideal_values: Sequence[float] = (),
    ) -> SkylineResult:
        """The cached result, or ``compute(resolved DAGs)`` stored under the
        query's key: one resolve and one key per query."""
        dags, key = self._resolve(partial_orders, attributes, ideal_values)
        result = self._lookup(key)
        if result is None:
            result = self._entries[key] = compute(dags)
        return result

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
