"""The TSS transform: datasets mapped into the ``TO x A_TO`` space.

TSS maps every record into a numeric space with one dimension per TO
attribute (canonical values, smaller is better) and one dimension per PO
attribute holding the value's ordinal in the topological sort of its
preference DAG (Section III-B).  Because the topological sort respects every
preference edge, visiting points of this space in ascending L1 distance from
the origin guarantees the *precedence* property.

Exact duplicates (records with identical attribute values) are grouped into a
single :class:`MappedPoint` carrying all their record ids.  Distinct mapped
points can then never tie on every attribute, which makes "weakly better
everywhere and not the same point" equivalent to strict dominance and keeps
every pruning rule exact.

Construction consumes an :class:`~repro.data.columns.EncodedFrame` (a bare
dataset is encoded first): the frame's canonical PO codes are remapped into
each encoding's topological positions with one gather, and duplicates are
grouped in first-occurrence order — one :func:`~repro.data.columns.group_rows`
over the mapped-coordinate matrix on NumPy frames, a dict over row tuples on
tuple-backed frames.  Both backings yield identical points in identical
order, so everything downstream — R-tree layout, BBS traversal, dominance
check counts — is unchanged; a mapping can also be built from a frame alone
(``dataset=None``), which is how sharded workers operate on shipped column
blocks.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from dataclasses import dataclass
from functools import cached_property

from repro.data.columns import EncodedFrame, group_rows
from repro.data.dataset import Dataset
from repro.data.schema import Schema
from repro.exceptions import SchemaError
from repro.index.pager import DiskSimulator
from repro.index.rtree import RTree
from repro.order.encoding import DomainEncoding, encode_domain

Value = Hashable


@dataclass(frozen=True, slots=True)
class MappedPoint:
    """A distinct value combination in the mapped space.

    Attributes
    ----------
    index:
        Position of this point in the mapping's point list (used as the
        R-tree payload).
    coords:
        Mapped coordinates: canonical TO values followed by one topological
        ordinal per PO attribute.
    to_values:
        The canonical TO values only.
    po_values:
        The original PO attribute values (schema order).
    record_ids:
        Ids of every dataset record with exactly these attribute values.
    """

    index: int
    coords: tuple[float, ...]
    to_values: tuple[float, ...]
    po_values: tuple[Value, ...]
    record_ids: tuple[int, ...]


def group_distinct_rows(dataset: Dataset) -> list[tuple[tuple[Value, ...], tuple[int, ...]]]:
    """Group record ids by their exact attribute-value tuple (insertion order)."""
    groups: dict[tuple[Value, ...], list[int]] = {}
    for record in dataset.records:
        groups.setdefault(record.values, []).append(record.id)
    return [(values, tuple(ids)) for values, ids in groups.items()]


class TSSMapping:
    """A dataset transformed into the TSS mapped space, plus its data R-tree."""

    def __init__(
        self,
        dataset: Dataset | None = None,
        encodings: Sequence[DomainEncoding] | None = None,
        *,
        schema: Schema | None = None,
        frame: EncodedFrame | None = None,
    ) -> None:
        if dataset is None and frame is None:
            raise SchemaError("TSSMapping needs a dataset or an encoded frame")
        if schema is None:
            schema = dataset.schema if dataset is not None else frame.schema
        if schema.num_partial_order == 0:
            raise SchemaError("TSSMapping requires at least one PO attribute; use plain BBS otherwise")
        self.dataset = dataset
        self.schema: Schema = schema
        if encodings is None:
            encodings = [
                encode_domain(attribute.dag) for attribute in schema.partial_order_attributes
            ]
        if len(encodings) != schema.num_partial_order:
            raise SchemaError("one DomainEncoding per PO attribute is required")
        self.encodings: tuple[DomainEncoding, ...] = tuple(encodings)
        if frame is None:
            frame = EncodedFrame.from_dataset(dataset)
        self.frame = frame
        self.points: list[MappedPoint] = self._build_points_from_frame(frame)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def _topo_code_maps(self) -> list[dict[Value, int]]:
        """Per PO attribute: value -> position in the topological order."""
        return [
            {value: position for position, value in enumerate(encoding.order)}
            for encoding in self.encodings
        ]

    def _build_points_from_frame(self, frame: EncodedFrame) -> list[MappedPoint]:
        """The distinct mapped points of an encoded frame.

        The frame's canonical codes are gathered into topological positions
        (``ordinal - 1``); duplicates are grouped in order of first
        occurrence — one :func:`~repro.data.columns.group_rows` over the
        mapped-coordinate matrix on NumPy frames, a dict over row tuples on
        tuple-backed frames — so both backings build the identical point list.
        """
        topo_codes = frame.remap_codes(self._topo_code_maps())
        to_block = frame.to
        length = len(frame)
        orders = [encoding.order for encoding in self.encodings]
        if not frame.uses_numpy:
            points: list[MappedPoint] = []
            groups: dict[tuple, list[int]] = {}
            for row_index in range(length):
                key = (tuple(to_block[row_index]), tuple(topo_codes[row_index]))
                groups.setdefault(key, []).append(row_index)
            for (to_values, codes), row_ids in groups.items():
                ordinals = tuple(float(code + 1) for code in codes)
                points.append(
                    MappedPoint(
                        index=len(points),
                        coords=tuple(to_values) + ordinals,
                        to_values=tuple(to_values),
                        po_values=tuple(order[code] for order, code in zip(orders, codes)),
                        record_ids=tuple(row_ids),
                    )
                )
            return points
        import numpy as np

        num_to = self.num_total_order
        coords = np.empty((length, self.dimensions), dtype=float)
        coords[:, :num_to] = to_block
        coords[:, num_to:] = topo_codes
        coords[:, num_to:] += 1.0
        unique_coords, groups = group_rows(coords)
        points = []
        for index, (unique_row, row_ids) in enumerate(zip(unique_coords, groups)):
            row = unique_row.tolist()
            points.append(
                MappedPoint(
                    index=index,
                    coords=tuple(row),
                    to_values=tuple(row[:num_to]),
                    po_values=tuple(
                        order[int(ordinal) - 1]
                        for order, ordinal in zip(orders, row[num_to:])
                    ),
                    record_ids=tuple(row_ids.tolist()),
                )
            )
        return points

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #
    @property
    def num_total_order(self) -> int:
        return self.schema.num_total_order

    @property
    def num_partial_order(self) -> int:
        return self.schema.num_partial_order

    @property
    def dimensions(self) -> int:
        """Dimensionality of the mapped space (|TO| + |PO|)."""
        return self.num_total_order + self.num_partial_order

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def to_offset(self) -> int:
        """Index of the first PO (ordinal) coordinate inside ``coords``."""
        return self.num_total_order

    @cached_property
    def point_codes(self) -> list[tuple[int, ...]]:
        """Per point: the PO codes (topological position, 0-based).

        Derived once from the mapped ordinals so skyline stores can feed
        kernel calls without re-deriving codes per dominance check.
        """
        offset = self.to_offset
        return [
            tuple(int(c) - 1 for c in point.coords[offset:]) for point in self.points
        ]

    def point(self, index: int) -> MappedPoint:
        return self.points[index]

    # ------------------------------------------------------------------ #
    # Index construction
    # ------------------------------------------------------------------ #
    def build_rtree(
        self,
        *,
        max_entries: int = 32,
        disk: DiskSimulator | None = None,
    ) -> RTree:
        """Bulk-load the data R-tree over the mapped points (payload = point index)."""
        return RTree.bulk_load(
            self.dimensions,
            ((point.coords, point.index) for point in self.points),
            max_entries=max_entries,
            disk=disk,
        )

    # ------------------------------------------------------------------ #
    # Decoding helpers
    # ------------------------------------------------------------------ #
    def ordinal_range_of_rect(self, low: Sequence[float], high: Sequence[float], po_index: int) -> tuple[int, int]:
        """The ``A_TO`` ordinal range an MBB spans for the ``po_index``-th PO attribute."""
        dimension = self.to_offset + po_index
        return int(low[dimension]), int(high[dimension])

    def record_ids_for(self, point_indices: Sequence[int]) -> list[int]:
        """Expand mapped-point indices back into dataset record ids."""
        ids: list[int] = []
        for index in point_indices:
            ids.extend(self.points[index].record_ids)
        return ids
