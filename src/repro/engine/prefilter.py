"""The shared per-PO-group TO-Pareto prefilter.

Records with identical PO value combinations tie on every PO attribute under
*every* preference DAG, so dominance between them is decided by the TO
attributes alone; within each PO group only the TO-Pareto front can ever
appear in any query's skyline.  The reduction is query-independent, which is
why both the :class:`~repro.engine.batch.BatchQueryEngine` (at construction)
and the store writer (at pack time, so loaders can skip the pass entirely)
run the very same code — extracted here so the two can never drift.

Both paths return identical survivor lists: the record walk is the reference
the columnar one must match (pinned by the engine's property tests), and the
dominance kernels agree bitwise on ``pareto_mask``.
"""

from __future__ import annotations

from collections.abc import Hashable

from repro.data.columns import EncodedFrame

Value = Hashable


def prefilter_survivors(schema, dataset, frame, kernel) -> list[int]:
    """Ascending row ids of each PO-combination group's TO-Pareto front.

    ``frame`` (an :class:`~repro.data.columns.EncodedFrame`) selects the
    columnar path; ``dataset`` the record path.  With no TO attributes (or no
    rows) every record survives.
    """
    if frame is not None:
        if not schema.num_total_order or not len(frame):
            return list(range(len(frame)))
        return _frame_survivors(frame, kernel)
    if not schema.num_total_order or not len(dataset):
        # Explicit record fallback: no frame was handed in.
        return [record.id for record in dataset.records]  # reprolint: disable=no-record-hot-path -- record-path fallback
    groups: dict[tuple[Value, ...], list[int]] = {}
    for record in dataset.records:  # reprolint: disable=no-record-hot-path -- record-path fallback
        groups.setdefault(schema.partial_values(record.values), []).append(record.id)
    survivors: list[int] = []
    for member_ids in groups.values():
        if len(member_ids) == 1:
            survivors.append(member_ids[0])
            continue
        rows = [
            schema.canonical_to_values(dataset[record_id].values)
            for record_id in member_ids
        ]
        mask = kernel.pareto_mask(rows)
        survivors.extend(
            record_id for record_id, keep in zip(member_ids, mask) if keep
        )
    survivors.sort()
    return survivors


def _frame_survivors(frame: EncodedFrame, kernel) -> list[int]:
    """Columnar prefilter: group rows by PO-code combination, then one
    :meth:`pareto_mask <repro.kernels.base.DominanceKernel.pareto_mask>` per
    group over frame slices (no per-record encoding)."""
    survivors: list[int] = []
    for member_rows in frame.po_groups()[1]:
        if len(member_rows) == 1:
            survivors.append(member_rows[0])
            continue
        mask = kernel.pareto_mask(frame.gather_to(member_rows))
        survivors.extend(row for row, keep in zip(member_rows, mask) if keep)
    survivors.sort()
    return survivors
