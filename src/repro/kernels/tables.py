"""Precomputed lookup tables that dominance kernels operate on.

The kernels (see :mod:`repro.kernels.base`) are deliberately ignorant of
schemas, DAGs and interval encodings: they work on integer codes and boolean
preference matrices.  This module bridges the gap once per dataset/query:

* :class:`PreferenceTable` — one PO attribute: its domain values, a value-to-
  code mapping and the preferred-or-equal relation as one bitmask per code
  (decoded into a dense ``pref_or_equal[better][worse]`` matrix on demand).
* :class:`RecordTables` — everything needed for *ground-truth* record
  dominance over a mixed TO/PO schema (used by BNL/SFS/LESS, the
  baselines' cross-examination and the engine's per-query tables).
* :class:`TDominanceTables` — everything needed for batched *t-dominance*
  over mapped points: t-preference matrices, postorder numbers, per-value
  interval-set masks and their minimum bounding intervals (MBIs), which
  serve as a cheap vectorizable necessary condition for mask containment.

Tables carry a ``scratch`` dict so a backend can stash converted
representations (e.g. NumPy arrays) and share them across stores built from
the same tables.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from dataclasses import dataclass, field
from functools import cached_property

from repro.data.schema import Schema
from repro.order.dag import PartialOrderDAG
from repro.order.encoding import DomainEncoding
from repro.order.intervals import mask_bounds

Value = Hashable


@dataclass(frozen=True)
class PreferenceTable:
    """The preferred-or-equal relation of one partially ordered domain.

    Code ``i`` is preferred over or equal to code ``j`` iff bit
    ``column_bits[j]`` of ``row_masks[i]`` is set: one closure bitmask per
    code plus one bit position per code, as the DAG and the encoding keep
    them.  The dense matrix :attr:`pref_or_equal` is decoded on first read.
    """

    values: tuple[Value, ...]
    code_of: dict[Value, int]
    #: Per code: the bitmask of the codes it is preferred over or equal to.
    row_masks: tuple[int, ...]
    #: Per code: the bit that stands for it in every row mask.
    column_bits: tuple[int, ...]

    @classmethod
    def from_dag(cls, dag: PartialOrderDAG) -> "PreferenceTable":
        """Ground-truth relation from DAG reachability: codes are insertion
        indices and each row is the DAG's closure bitmask."""
        values = dag.values
        return cls(
            values=values,
            code_of={value: i for i, value in enumerate(values)},
            row_masks=dag.reach_bits,
            column_bits=tuple(range(len(values))),
        )

    @classmethod
    def from_masks(
        cls, values: tuple[Value, ...], masks: Sequence[int], posts: Sequence[int]
    ) -> "PreferenceTable":
        """Exact t-preference of one encoded domain: row ``i`` is ``masks[i]``
        and value ``j`` is bit ``posts[j]`` (mask containment coincides with
        reachability because the interval sets are exact; every value reaches
        itself, so the diagonal is set)."""
        return cls(
            values=values,
            code_of={value: i for i, value in enumerate(values)},
            row_masks=tuple(masks),
            column_bits=tuple(posts),
        )

    @cached_property
    def pref_or_equal(self) -> tuple[tuple[bool, ...], ...]:
        """``pref_or_equal[i][j]`` — value ``i`` is preferred over or equal to ``j``."""
        bits = self.column_bits
        return tuple(
            tuple(mask >> bit & 1 == 1 for bit in bits) for mask in self.row_masks
        )

    @property
    def cardinality(self) -> int:
        return len(self.values)


@dataclass
class RecordTables:
    """Tables for ground-truth record dominance over a mixed TO/PO schema."""

    num_total_order: int
    attributes: tuple[PreferenceTable, ...]
    scratch: dict[str, object] = field(default_factory=dict)

    @classmethod
    def from_schema(cls, schema: Schema) -> "RecordTables":
        return cls(
            num_total_order=schema.num_total_order,
            attributes=tuple(
                PreferenceTable.from_dag(attribute.dag)
                for attribute in schema.partial_order_attributes
            ),
        )

    @classmethod
    def from_encodings(
        cls, num_total_order: int, encodings: Sequence[DomainEncoding]
    ) -> "RecordTables":
        """Ground-truth tables keyed by the encodings' domains (baselines)."""
        return cls(
            num_total_order=num_total_order,
            attributes=tuple(
                PreferenceTable.from_dag(encoding.dag) for encoding in encodings
            ),
        )

    @property
    def num_partial_order(self) -> int:
        return len(self.attributes)

    def encode_po(self, po_values: Sequence[Value]) -> tuple[int, ...]:
        return tuple(
            table.code_of[value] for table, value in zip(self.attributes, po_values)
        )


@dataclass
class TDominanceTables:
    """Tables for batched t-dominance over TSS mapped points.

    Codes are positions in the encoding's topological order (``ordinal - 1``),
    so a mapped point's PO code is derivable from its ordinal coordinate.
    """

    num_total_order: int
    attributes: tuple[PreferenceTable, ...]
    #: Per attribute, per code: the value's spanning-tree postorder number.
    posts: tuple[tuple[int, ...], ...]
    #: Per attribute, per code: the value's exact interval set as a mask.
    masks: tuple[tuple[int, ...], ...]
    #: Per attribute, per code: low/high ends of the minimum bounding interval.
    mbi_low: tuple[tuple[int, ...], ...]
    mbi_high: tuple[tuple[int, ...], ...]
    scratch: dict[str, object] = field(default_factory=dict)

    @classmethod
    def from_encodings(
        cls, num_total_order: int, encodings: Sequence[DomainEncoding]
    ) -> "TDominanceTables":
        attributes, posts, masks = [], [], []
        for encoding in encodings:
            order = encoding.order
            post, reach = encoding.tree.post, encoding.reach_masks
            posts.append(tuple(post[value] for value in order))
            masks.append(tuple(reach[value] for value in order))
            attributes.append(PreferenceTable.from_masks(order, masks[-1], posts[-1]))
        bounds = [[mask_bounds(mask) for mask in row] for row in masks]
        return cls(
            num_total_order=num_total_order,
            attributes=tuple(attributes),
            posts=tuple(posts),
            masks=tuple(masks),
            mbi_low=tuple(tuple(low for low, _ in pairs) for pairs in bounds),
            mbi_high=tuple(tuple(high for _, high in pairs) for pairs in bounds),
        )

    @property
    def num_partial_order(self) -> int:
        return len(self.attributes)

    def encode_po(self, po_values: Sequence[Value]) -> tuple[int, ...]:
        return tuple(
            table.code_of[value] for table, value in zip(self.attributes, po_values)
        )
