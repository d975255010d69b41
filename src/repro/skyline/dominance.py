"""Dominance checks: numeric vectors and general records with PO attributes.

Two relations are defined here:

* :func:`dominates_vectors` — classical TO dominance between numeric vectors
  where smaller is better on every dimension.
* :func:`dominates_records` — the *ground-truth* dominance between two records
  of a mixed TO/PO schema: at least as good everywhere (TO: ``<=``; PO:
  preferred-or-equal per the attribute's DAG) and strictly better somewhere.
  This is the relation the skyline is defined by (Section I of the paper) and
  the oracle every algorithm's output is validated against.

The scalar functions here define the semantics; the scan algorithms
(BNL/SFS/LESS) evaluate the same relation in blocks over encoded frame rows
through the record store of a pluggable :mod:`~repro.kernels` backend.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.data.dataset import Record
from repro.data.schema import Schema


def dominates_vectors(p: Sequence[float], q: Sequence[float]) -> bool:
    """True iff ``p`` dominates ``q``: no worse anywhere, strictly better somewhere."""
    strictly_better = False
    for a, b in zip(p, q):
        if a > b:
            return False
        if a < b:
            strictly_better = True
    return strictly_better


def weakly_dominates_vectors(p: Sequence[float], q: Sequence[float]) -> bool:
    """True iff ``p`` is no worse than ``q`` on every dimension (ties allowed)."""
    return all(a <= b for a, b in zip(p, q))


def dominates_records(schema: Schema, a: Record, b: Record) -> bool:
    """Ground-truth dominance of record ``a`` over record ``b`` under ``schema``.

    ``a`` dominates ``b`` iff it is at least as good on every TO attribute
    (after canonicalization, smaller is better), preferred-or-equal on every
    PO attribute according to its preference DAG, and strictly better on at
    least one attribute of either kind.
    """
    strictly_better = False

    for position in schema.total_order_positions:
        attribute = schema.attributes[position]
        value_a = attribute.canonical(a.values[position])  # type: ignore[union-attr]
        value_b = attribute.canonical(b.values[position])  # type: ignore[union-attr]
        if value_a > value_b:
            return False
        if value_a < value_b:
            strictly_better = True

    for position in schema.partial_order_positions:
        attribute = schema.attributes[position]
        value_a = a.values[position]
        value_b = b.values[position]
        if value_a == value_b:
            continue
        if attribute.dag.is_preferred(value_a, value_b):  # type: ignore[union-attr]
            strictly_better = True
        else:
            return False

    return strictly_better


def record_dominance_function(schema: Schema) -> Callable[[Record, Record], bool]:
    """A two-argument dominance predicate bound to ``schema`` (for BNL/SFS/brute force)."""

    def dominates(a: Record, b: Record) -> bool:
        return dominates_records(schema, a, b)

    return dominates


def incomparable_records(schema: Schema, a: Record, b: Record) -> bool:
    """True iff neither record dominates the other."""
    return not dominates_records(schema, a, b) and not dominates_records(schema, b, a)
