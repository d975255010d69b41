"""The Chan et al. transformation: PO values to spanning-tree intervals only.

Every PO value is replaced by the two coordinates of its single spanning-tree
interval ``[minpost, post]`` (Section II-B/II-C).  Because non-tree edges are
ignored, the mapping is *incomplete*: dominance in the transformed space —
called m-dominance — is stronger than true dominance, so skylines computed
with it may contain false hits that must be eliminated by cross-examination.

To keep "smaller is better" on every transformed dimension (so the standard
vector dominance and the BBS mindist ordering apply directly), the ``post``
coordinate is stored as ``|domain| - post``: containment
``[minpost_i, post_i] ⊇ [minpost_j, post_j]`` is then exactly componentwise
``<=`` on ``(minpost, |domain| - post)``.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from dataclasses import dataclass
from functools import cached_property

from repro.core.mapping import group_distinct_rows
from repro.data.dataset import Dataset
from repro.data.schema import Schema
from repro.exceptions import SchemaError
from repro.index.pager import DiskSimulator
from repro.index.rtree import RTree
from repro.order.encoding import DomainEncoding, encode_domain
from repro.skyline.dominance import dominates_vectors, weakly_dominates_vectors

Value = Hashable


@dataclass(frozen=True, slots=True)
class BaselinePoint:
    """A distinct value combination in the Chan et al. transformed space."""

    index: int
    coords: tuple[float, ...]
    to_values: tuple[float, ...]
    po_values: tuple[Value, ...]
    record_ids: tuple[int, ...]
    uncovered_level: int

    @property
    def completely_covered(self) -> bool:
        return self.uncovered_level == 0


class BaselineMapping:
    """Dataset transformed to ``TO-dims x (I1, I2) per PO attribute``."""

    def __init__(
        self,
        dataset: Dataset,
        encodings: Sequence[DomainEncoding] | None = None,
    ) -> None:
        schema = dataset.schema
        if schema.num_partial_order == 0:
            raise SchemaError("BaselineMapping requires at least one PO attribute")
        self.dataset = dataset
        self.schema: Schema = schema
        if encodings is None:
            encodings = [
                encode_domain(attribute.dag) for attribute in schema.partial_order_attributes
            ]
        self.encodings: tuple[DomainEncoding, ...] = tuple(encodings)
        self.points: list[BaselinePoint] = self._build_points()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def _build_points(self) -> list[BaselinePoint]:
        schema = self.schema
        points: list[BaselinePoint] = []
        for values, record_ids in group_distinct_rows(self.dataset):
            to_values = schema.canonical_to_values(values)
            po_values = schema.partial_values(values)
            interval_coords: list[float] = []
            level = 0
            for encoding, value in zip(self.encodings, po_values):
                interval = encoding.tree_interval(value)
                interval_coords.append(float(interval.low))
                interval_coords.append(float(encoding.cardinality - interval.high))
                level = max(level, encoding.uncovered[value])
            points.append(
                BaselinePoint(
                    index=len(points),
                    coords=to_values + tuple(interval_coords),
                    to_values=to_values,
                    po_values=po_values,
                    record_ids=record_ids,
                    uncovered_level=level,
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
        """Dimensionality of the transformed space (|TO| + 2 |PO|)."""
        return self.num_total_order + 2 * self.num_partial_order

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def max_uncovered_level(self) -> int:
        point_max = max((p.uncovered_level for p in self.points), default=0)
        domain_max = max(e.max_uncovered_level for e in self.encodings)
        return max(point_max, domain_max)

    def point(self, index: int) -> BaselinePoint:
        return self.points[index]

    def record_ids_for(self, point_indices: Sequence[int]) -> list[int]:
        ids: list[int] = []
        for index in point_indices:
            ids.extend(self.points[index].record_ids)
        return ids

    # ------------------------------------------------------------------ #
    # Dominance relations
    # ------------------------------------------------------------------ #
    def m_dominates(self, p: BaselinePoint, q: BaselinePoint) -> bool:
        """m-dominance: dominance in the transformed space (strong, may miss)."""
        return dominates_vectors(p.coords, q.coords)

    def weakly_m_dominates_corner(self, p: BaselinePoint, corner: Sequence[float]) -> bool:
        """Used to prune MBBs: p at least as good as the MBB's best corner."""
        return weakly_dominates_vectors(p.coords, corner)

    def actually_dominates(self, p: BaselinePoint, q: BaselinePoint) -> bool:
        """Ground-truth dominance (used for cross-examination of false hits)."""
        strictly_better = False
        for a, b in zip(p.to_values, q.to_values):
            if a > b:
                return False
            if a < b:
                strictly_better = True
        for encoding, value_p, value_q in zip(self.encodings, p.po_values, q.po_values):
            if value_p == value_q:
                continue
            if encoding.dag.is_preferred(value_p, value_q):
                strictly_better = True
            else:
                return False
        return strictly_better

    # ------------------------------------------------------------------ #
    # Index construction
    # ------------------------------------------------------------------ #
    def build_rtree(
        self,
        point_indices: Sequence[int] | None = None,
        *,
        max_entries: int = 32,
        disk: DiskSimulator | None = None,
    ) -> RTree:
        """Bulk-load an R-tree over (a subset of) the transformed points."""
        if point_indices is None:
            selected = self.points
        else:
            selected = [self.points[i] for i in point_indices]
        return RTree.bulk_load(
            self.dimensions,
            ((p.coords, p.index) for p in selected),
            max_entries=max_entries,
            disk=disk,
        )

    def strata(self) -> dict[int, list[BaselinePoint]]:
        """Points grouped by uncovered level, in increasing level order (SDC+)."""
        grouped: dict[int, list[BaselinePoint]] = {}
        for point in self.points:
            grouped.setdefault(point.uncovered_level, []).append(point)
        return dict(sorted(grouped.items()))
