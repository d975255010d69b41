"""Per-PO-value group structures reused across dynamic skyline queries.

dTSS partitions the dataset into disjoint groups, one per combination of PO
attribute values (Section V-A).  Dominance relationships *within* a group
never depend on the query's partial order — all group members share the same
PO values — so the per-group R-trees over the TO attributes (and, optionally,
each group's local TO skyline, Section V-B) are built once and reused by
every query.

The structures are anchored on the columnar data plane: a
:class:`GroupedDataset` accepts a record :class:`~repro.data.dataset.Dataset`,
an :class:`~repro.data.columns.EncodedFrame` (grouped column-wise) or a live
:class:`~repro.delta.frame.DeltaFrame` — and under live mutations it is
maintained *incrementally*, rebuilding only the PO-value groups a mutation
batch actually touched (:meth:`GroupedDataset.apply_mutations`) instead of
re-partitioning the whole dataset the way the SDC+ adaptation must.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence
from dataclasses import dataclass

from repro.core.mapping import group_distinct_rows
from repro.data.columns import EncodedFrame, group_rows
from repro.data.dataset import Dataset
from repro.data.schema import Schema
from repro.delta.frame import DeltaFrame
from repro.exceptions import SchemaError
from repro.index.pager import DiskSimulator
from repro.index.rtree import RTree
from repro.skyline.dominance import dominates_vectors

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

    Accepts a record :class:`Dataset`, an :class:`EncodedFrame` (record ids =
    row positions) or a :class:`DeltaFrame` (record ids = stable ids, only
    live rows are grouped).  Columnar sources are grouped column-wise while
    preserving first-occurrence order, so an identity delta produces exactly
    the structures the record path builds.
    """

    def __init__(
        self,
        dataset: Dataset | EncodedFrame | DeltaFrame,
        *,
        max_entries: int = 32,
        disk: DiskSimulator | None = None,
        precompute_local_skylines: bool = False,
    ) -> None:
        schema = dataset.schema
        if schema.num_partial_order == 0:
            raise SchemaError("dynamic PO skylines need at least one PO attribute")
        if schema.num_total_order == 0:
            raise SchemaError("dynamic PO skylines need at least one TO attribute")
        self.dataset = dataset if isinstance(dataset, Dataset) else None
        self.schema: Schema = schema
        self.max_entries = max_entries
        self.disk = disk

        self.points: list[GroupPoint] = []
        self.groups: dict[tuple[Value, ...], list[GroupPoint]] = {}
        self._point_of_record: dict[int, GroupPoint] = {}
        if isinstance(dataset, Dataset):
            grouped: Iterable[tuple[tuple[float, ...], tuple[Value, ...], tuple[int, ...]]] = (
                (
                    schema.canonical_to_values(values),
                    schema.partial_values(values),
                    record_ids,
                )
                for values, record_ids in group_distinct_rows(dataset)
            )
        else:
            grouped = _columnar_groups(dataset)
        for to_values, po_values, record_ids in grouped:
            self._add_point(to_values, po_values, tuple(record_ids))

        self.group_trees: dict[tuple[Value, ...], RTree] = {
            key: self._build_tree(members) for key, members in self.groups.items()
        }

        self.local_skylines: dict[tuple[Value, ...], list[GroupPoint]] | None = None
        if precompute_local_skylines:
            self.local_skylines = {
                key: self._local_skyline(members) for key, members in self.groups.items()
            }

    def _add_point(
        self,
        to_values: tuple[float, ...],
        po_values: tuple[Value, ...],
        record_ids: tuple[int, ...],
    ) -> GroupPoint:
        point = GroupPoint(
            index=len(self.points),
            to_values=to_values,
            po_values=po_values,
            record_ids=record_ids,
        )
        self.points.append(point)
        self.groups.setdefault(po_values, []).append(point)
        for record_id in record_ids:
            self._point_of_record[record_id] = point
        return point

    def _build_tree(self, members: Sequence[GroupPoint]) -> RTree:
        return RTree.bulk_load(
            self.schema.num_total_order,
            ((point.to_values, point.index) for point in members),
            max_entries=self.max_entries,
            disk=self.disk,
        )

    # ------------------------------------------------------------------ #
    # Incremental maintenance (delta plane)
    # ------------------------------------------------------------------ #
    def apply_mutations(
        self,
        inserts: Iterable[tuple[int, Sequence[float], Sequence[Value]]] = (),
        deleted_ids: Iterable[int] = (),
    ) -> set[tuple[Value, ...]]:
        """Fold a mutation batch in, rebuilding only the touched groups.

        ``inserts`` are ``(record id, canonical TO values, PO values)``
        triples (the shape :meth:`DeltaFrame.insert_entries` yields);
        ``deleted_ids`` are stable ids — unknown ones are ignored, so a
        caller may pass tombstones of rows it never handed to this index.
        Returns the set of group keys that were rebuilt.
        """
        dead: set[int] = set()
        dirty: set[tuple[Value, ...]] = set()
        for record_id in deleted_ids:
            point = self._point_of_record.pop(int(record_id), None)
            if point is None:
                continue
            dead.add(int(record_id))
            dirty.add(point.po_values)
        pending: dict[tuple[Value, ...], list[tuple[int, tuple[float, ...]]]] = {}
        for record_id, to_values, po_values in inserts:
            key = tuple(po_values)
            pending.setdefault(key, []).append(
                (int(record_id), tuple(float(v) for v in to_values))
            )
            dirty.add(key)
        for key in dirty:
            self._rebuild_group(key, dead, pending.get(key, ()))
        return dirty

    def _rebuild_group(
        self,
        key: tuple[Value, ...],
        dead: set[int],
        inserts: Sequence[tuple[int, tuple[float, ...]]],
    ) -> None:
        members: dict[tuple[float, ...], list[int]] = {}
        for point in self.groups.get(key, ()):
            ids = [i for i in point.record_ids if i not in dead]
            if ids:
                members.setdefault(point.to_values, []).extend(ids)
        for record_id, to_values in inserts:
            members.setdefault(to_values, []).append(record_id)
        if not members:
            self.groups.pop(key, None)
            self.group_trees.pop(key, None)
            if self.local_skylines is not None:
                self.local_skylines.pop(key, None)
            return
        # Fresh GroupPoints are appended to self.points (indices are R-tree
        # payloads, so they must never shift); the group's old points simply
        # become unreferenced.
        self.groups[key] = []
        fresh = [
            self._add_point(to_values, key, tuple(ids))
            for to_values, ids in members.items()
        ]
        self.group_trees[key] = self._build_tree(fresh)
        if self.local_skylines is not None:
            self.local_skylines[key] = self._local_skyline(fresh)

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

    def group_keys(self) -> list[tuple[Value, ...]]:
        return list(self.groups)

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
        """The TO-only skyline of one group (its PO values are all identical)."""
        ordered = sorted(members, key=lambda p: sum(p.to_values))
        skyline: list[GroupPoint] = []
        for candidate in ordered:
            if not any(dominates_vectors(s.to_values, candidate.to_values) for s in skyline):
                skyline.append(candidate)
        return skyline

    def ensure_local_skylines(self) -> dict[tuple[Value, ...], list[GroupPoint]]:
        """Compute (and memoize) the local skylines if not done at build time."""
        if self.local_skylines is None:
            self.local_skylines = {
                key: self._local_skyline(members) for key, members in self.groups.items()
            }
        return self.local_skylines


def _columnar_groups(
    source: EncodedFrame | DeltaFrame,
) -> list[tuple[tuple[float, ...], tuple[Value, ...], list[int]]]:
    """Group a columnar source's (live) rows by full value combination.

    Yields ``(canonical TO values, PO values, record ids)`` per distinct row
    in first-occurrence order — the exact contract of dict-based grouping
    over record tuples, so the record and columnar paths build identical
    structures.  NumPy-backed frames group vectorized via :func:`group_rows`
    on one combined matrix; tuple-backed frames fall back to a dict sweep.
    """
    if isinstance(source, DeltaFrame):
        frame = source.frame()
        rows = source.live_rows()
        ids = [source.stable_id_of_row(row) for row in rows]
    else:
        frame = source
        rows = ids = list(range(len(source)))
    domains = frame.codec.domains
    num_po = len(domains)

    if frame.uses_numpy:
        import numpy as np

        num_to = frame.schema.num_total_order
        index = np.asarray(rows, dtype=np.intp)
        unique, grouped_rows = group_rows(
            np.concatenate([frame.to[index], frame.codes[index].astype(np.float64)], axis=1)
        )
        result = []
        for g, member_rows in enumerate(grouped_rows):
            to_values = tuple(float(v) for v in unique[g, :num_to])
            po_values = tuple(
                domains[k][int(unique[g, num_to + k])] for k in range(num_po)
            )
            result.append((to_values, po_values, [ids[i] for i in member_rows]))
        return result

    groups: dict[tuple[tuple[float, ...], tuple[Value, ...]], list[int]] = {}
    for row, record_id in zip(rows, ids):
        to_values = tuple(frame.to[row])
        codes = frame.codes[row]
        po_values = tuple(domains[k][codes[k]] for k in range(num_po))
        groups.setdefault((to_values, po_values), []).append(record_id)
    return [(to, po, ids) for (to, po), ids in groups.items()]
