"""Semantic DAG signatures, override validation and the per-DAG encoding cache.

Queries are keyed by the *semantic* topology of their preference DAGs — the
values plus one closure bitmask per value (:attr:`PartialOrderDAG.reach_bits
<repro.order.dag.PartialOrderDAG.reach_bits>`) — so two specifications that
imply the same preference relation (a Hasse diagram vs its transitive
closure, shuffled or repeated edges) share one cache entry.  The key holds
one int per value, whatever the number of closure edges.
:class:`EncodingCache` maps those signatures to
:class:`~repro.order.encoding.DomainEncoding` objects under an LRU bound;
only the sharded executor's workers hold one.  The batch engine keys its
result cache by the signatures and reads the closure bits directly, so it
builds no interval encoding.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping, Sequence

from repro.engine.lru import LRUDict
from repro.exceptions import QueryError
from repro.order.dag import PartialOrderDAG
from repro.order.encoding import DomainEncoding, encode_domain

Value = Hashable


def validate_override_domains(
    attributes: Sequence, overrides: Mapping[str, PartialOrderDAG]
) -> None:
    """Reject overrides of unknown attributes or with shrunk value domains.

    The shared query-validation invariant of the batch engine and the
    sharded executor: dynamic preferences re-rank a domain, they never
    change it.  Checking domain coverage up front is the cheap equivalent
    of full row re-validation, so both paths can swap schemas with
    ``validate=False``.
    """
    known = {attribute.name: attribute for attribute in attributes}
    unknown = set(overrides) - set(known)
    if unknown:
        raise QueryError(f"query overrides non-PO attributes: {sorted(unknown)}")
    for name, dag in overrides.items():
        missing = set(known[name].domain) - set(dag.values)
        if missing:
            raise QueryError(
                f"override for {name!r} is missing domain values: "
                f"{sorted(missing, key=repr)}"
            )

#: Semantic signature of one preference DAG: its values in insertion order
#: and, per value, the bitmask of the values it is preferred over or equal to
#: (bit ``j`` stands for ``values[j]``).
DagKey = tuple[tuple[Value, ...], tuple[int, ...]]


def dag_signature(dag: PartialOrderDAG) -> DagKey:
    """Semantic identity of a preference DAG: values + closure bitmasks."""
    return dag.values, dag.reach_bits


class EncodingCache:
    """An LRU-bounded map from DAG signatures to interval encodings."""

    __slots__ = ("_entries",)

    def __init__(self, capacity: int) -> None:
        self._entries: LRUDict[DagKey, DomainEncoding] = LRUDict(capacity)

    def encodings_for(
        self, attributes: Sequence, overrides: Mapping[str, PartialOrderDAG]
    ) -> list[DomainEncoding]:
        """One encoding per PO attribute, honoring per-attribute overrides."""
        encodings: list[DomainEncoding] = []
        for attribute in attributes:
            dag = overrides.get(attribute.name, attribute.dag)
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
