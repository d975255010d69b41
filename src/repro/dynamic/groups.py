"""Per-PO-value group structures reused across dynamic skyline queries.

dTSS partitions the dataset into disjoint groups, one per combination of PO
attribute values (Section V-A).  Dominance relationships *within* a group
never depend on the query's partial order — all group members share the same
PO values — so the per-group R-trees over the TO attributes (and, optionally,
each group's local TO skyline, Section V-B) are built once and reused by
every query.  The data stays fixed across queries, as in the paper's dynamic
setting: a :class:`GroupedDataset` is built over one record
:class:`~repro.data.dataset.Dataset` and never changes afterwards.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from dataclasses import dataclass

from repro.core.mapping import group_distinct_rows
from repro.data.dataset import Dataset
from repro.data.schema import Schema
from repro.exceptions import QueryError, SchemaError
from repro.index.geometry import sweep_key
from repro.index.pager import DiskSimulator
from repro.index.rtree import RTree
from repro.kernels import resolve_kernel

Value = Hashable


@dataclass(frozen=True, slots=True)
class GroupPoint:
    """A distinct value combination within one PO-value group."""

    index: int
    to_values: tuple[float, ...]
    po_values: tuple[Value, ...]
    record_ids: tuple[int, ...]


class GroupedDataset:
    """The dataset partitioned by PO value combination, with per-group R-trees.

    Record ids are the dataset's record positions; duplicate rows collapse
    into one :class:`GroupPoint` carrying every id.
    """

    def __init__(
        self,
        dataset: Dataset,
        *,
        max_entries: int = 32,
        disk: DiskSimulator | None = None,
        precompute_local_skylines: bool = False,
    ) -> None:
        dataset = require_dataset(dataset)
        schema = dataset.schema
        if schema.num_partial_order == 0:
            raise SchemaError("dynamic PO skylines need at least one PO attribute")
        if schema.num_total_order == 0:
            raise SchemaError("dynamic PO skylines need at least one TO attribute")
        self.dataset = dataset
        self.schema: Schema = schema
        self.max_entries = max_entries
        self.disk = disk

        self.points: list[GroupPoint] = []
        self.groups: dict[tuple[Value, ...], list[GroupPoint]] = {}
        for values, record_ids in group_distinct_rows(dataset):
            point = GroupPoint(
                index=len(self.points),
                to_values=schema.canonical_to_values(values),
                po_values=schema.partial_values(values),
                record_ids=tuple(record_ids),
            )
            self.points.append(point)
            self.groups.setdefault(point.po_values, []).append(point)

        self.group_trees: dict[tuple[Value, ...], RTree] = {
            key: self._build_tree(members) for key, members in self.groups.items()
        }

        self.local_skylines: dict[tuple[Value, ...], list[GroupPoint]] | None = None
        if precompute_local_skylines:
            self.local_skylines = {
                key: self._local_skyline(members) for key, members in self.groups.items()
            }

    def _build_tree(self, members: Sequence[GroupPoint]) -> RTree:
        return RTree.bulk_load(
            self.schema.num_total_order,
            ((point.to_values, point.index) for point in members),
            max_entries=self.max_entries,
            disk=self.disk,
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def num_groups(self) -> int:
        return len(self.groups)

    @property
    def num_total_order(self) -> int:
        return self.schema.num_total_order

    @property
    def num_partial_order(self) -> int:
        return self.schema.num_partial_order

    def __len__(self) -> int:
        return len(self.points)

    def point(self, index: int) -> GroupPoint:
        return self.points[index]

    def record_ids_for(self, point_indices: Sequence[int]) -> list[int]:
        ids: list[int] = []
        for index in point_indices:
            ids.extend(self.points[index].record_ids)
        return ids

    # ------------------------------------------------------------------ #
    # Local skylines (Section V-B pre-processing optimization)
    # ------------------------------------------------------------------ #
    @staticmethod
    def _local_skyline(members: list[GroupPoint]) -> list[GroupPoint]:
        """The TO-only skyline of one group (its PO values are all identical),
        in sweep-key order, from the process-default kernel's ``pareto_mask``."""
        ordered = sorted(members, key=lambda p: sweep_key(p.to_values))
        keep = resolve_kernel(None).pareto_mask([p.to_values for p in ordered])
        return [point for point, kept in zip(ordered, keep) if kept]

    def ensure_local_skylines(self) -> dict[tuple[Value, ...], list[GroupPoint]]:
        """Compute (and memoize) the local skylines if not done at build time."""
        if self.local_skylines is None:
            self.local_skylines = {
                key: self._local_skyline(members) for key, members in self.groups.items()
            }
        return self.local_skylines


def require_dataset(source: object) -> Dataset:
    """The record :class:`Dataset` every dynamic entry point reads.

    The dynamic plane answers new preferences over fixed data, so it takes
    records only; an encoded frame or a live delta is rejected here, with a
    typed error, rather than failing somewhere inside the query.
    """
    if not isinstance(source, Dataset):
        raise QueryError(
            f"dynamic skyline queries read a record Dataset, got {type(source).__name__}"
        )
    return source
