"""The shared per-PO-group TO-Pareto prefilter.

Records with identical PO value combinations tie on every PO attribute under
*every* preference DAG, so dominance between them is decided by the TO
attributes alone; within each PO group only the TO-Pareto front can ever
appear in any query's skyline.  The reduction is query-independent, which is
why both the :class:`~repro.engine.batch.BatchQueryEngine` (at construction)
and the store writer (at pack time, so loaders can skip the pass entirely)
run the very same code — extracted here so the two can never drift.  The
dominance kernels agree bitwise on ``pareto_mask``, so the survivor list
does not depend on the kernel.
"""

from __future__ import annotations


def prefilter_survivors(schema, dataset, frame, kernel) -> list[int]:
    """Ascending row ids of each PO-combination group's TO-Pareto front.

    Groups the rows of ``frame`` (an :class:`~repro.data.columns.EncodedFrame`)
    by PO-code combination, then makes one :meth:`pareto_mask
    <repro.kernels.base.DominanceKernel.pareto_mask>` call per group over
    frame slices.  With no TO attributes (or no rows) every row survives.
    ``dataset`` is not read; callers pass ``None``.
    """
    if not schema.num_total_order or not len(frame):
        return list(range(len(frame)))
    survivors: list[int] = []
    for member_rows in frame.po_groups()[1]:
        if len(member_rows) == 1:
            survivors.append(member_rows[0])
            continue
        mask = kernel.pareto_mask(frame.gather_to(member_rows))
        survivors.extend(row for row, keep in zip(member_rows, mask) if keep)
    survivors.sort()
    return survivors
