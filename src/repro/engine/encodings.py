"""Query preferences: the one resolver, the semantic key and the encoding cache.

A dynamic query (Section V of the paper) gives one partial order per PO
attribute: a name → DAG mapping whose omitted attributes keep the schema's
DAG, or one DAG per PO attribute in schema order.  :func:`resolve_query_dags`
is the one place that reads and checks such a specification, for every entry
point (the batch engine, the sharded executor, the service through the
engine, the :mod:`repro.dynamic` plane).  A DAG must hold its attribute's
whole domain and may hold values outside it; a resolved DAG holds exactly
the domain, in the domain's order, so what a query costs downstream is
bounded by the schema.

Queries are keyed by the *semantic* topology of their resolved DAGs — the
values plus one closure bitmask per value (:attr:`PartialOrderDAG.reach_bits
<repro.order.dag.PartialOrderDAG.reach_bits>`) — so two specifications that
imply the same preferences over the domain (a Hasse diagram vs its
transitive closure, another edge or value order, detours through outside
values) share one entry in the engine's result cache and in
:class:`~repro.dynamic.cache.DynamicQueryCache`.  :class:`EncodingCache`
maps DAG signatures to :class:`~repro.order.encoding.DomainEncoding` objects
under an LRU bound; only the sharded executor's workers hold one.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping, Sequence
from typing import TYPE_CHECKING

from repro.engine.lru import LRUDict
from repro.exceptions import QueryError
from repro.order.dag import PartialOrderDAG
from repro.order.encoding import DomainEncoding, encode_domain

if TYPE_CHECKING:
    from repro.data.schema import PartialOrderAttribute, Schema

Value = Hashable

#: A query's preferences: PO attribute name -> DAG (omitted attributes keep
#: the schema's DAG), or one DAG per PO attribute in schema order.
QuerySpec = Mapping[str, PartialOrderDAG] | Sequence[PartialOrderDAG]


def resolve_query_dags(
    attributes: Sequence[PartialOrderAttribute], spec: QuerySpec
) -> tuple[PartialOrderDAG, ...]:
    """The query's DAGs in schema order, or a :class:`QueryError`.

    ``attributes`` are the schema's PO attributes.  A DAG that does not list
    exactly its attribute's domain in order is replaced by its
    :meth:`~repro.order.dag.PartialOrderDAG.restrict` to the domain.
    """
    if isinstance(spec, Mapping):
        unknown = set(spec).difference(attribute.name for attribute in attributes)
        if unknown:
            raise QueryError(f"query names unknown PO attributes: {sorted(unknown)}")
        dags = tuple(spec.get(attribute.name, attribute.dag) for attribute in attributes)
    else:
        dags = tuple(spec)
        if len(dags) != len(attributes):
            raise QueryError(
                f"query gives {len(dags)} partial orders, "
                f"schema has {len(attributes)} PO attributes"
            )
    resolved = []
    for attribute, dag in zip(attributes, dags):
        domain = attribute.domain
        if dag is not attribute.dag and dag.values != domain:
            missing = [value for value in domain if value not in dag]
            if missing:
                raise QueryError(
                    f"partial order for {attribute.name!r} is missing domain values: "
                    f"{sorted(missing, key=repr)}"
                )
            dag = dag.restrict(domain)
        resolved.append(dag)
    return tuple(resolved)


def query_schema(schema: Schema, dags: Sequence[PartialOrderDAG]) -> Schema:
    """``schema`` with its PO attributes re-specified by resolved query DAGs."""
    replacements = {
        attribute.name: dag
        for attribute, dag in zip(schema.partial_order_attributes, dags)
        if dag is not attribute.dag
    }
    return schema.replace_partial_order(replacements) if replacements else schema


#: Semantic signature of one preference DAG: its values in insertion order
#: and, per value, the bitmask of the values it is preferred over or equal to
#: (bit ``j`` stands for ``values[j]``).
DagKey = tuple[tuple[Value, ...], tuple[int, ...]]

#: Signature of a whole query: one DagKey per PO attribute, in schema order.
TopologyKey = tuple[DagKey, ...]


def dag_signature(dag: PartialOrderDAG) -> DagKey:
    """Semantic identity of a preference DAG: values + closure bitmasks."""
    return dag.values, dag.reach_bits


def topology_key(dags: Sequence[PartialOrderDAG]) -> TopologyKey:
    """Semantic identity of a whole query, from its resolved DAGs."""
    return tuple(dag_signature(dag) for dag in dags)


class EncodingCache:
    """An LRU-bounded map from DAG signatures to interval encodings."""

    __slots__ = ("_entries",)

    def __init__(self, capacity: int) -> None:
        self._entries: LRUDict[DagKey, DomainEncoding] = LRUDict(capacity)

    def encodings_for(self, dags: Sequence[PartialOrderDAG]) -> list[DomainEncoding]:
        """One encoding per resolved query DAG, in the same order."""
        encodings: list[DomainEncoding] = []
        for dag in dags:
            key = dag_signature(dag)
            encoding = self._entries.get(key)
            if encoding is None:
                encoding = encode_domain(dag)
                # Propagate the interval masks now, so a miss pays for the
                # whole encoding here and not in the first t-dominance test.
                encoding.reach_masks
                self._entries[key] = encoding
            encodings.append(encoding)
        return encodings

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def evictions(self) -> int:
        return self._entries.evictions
