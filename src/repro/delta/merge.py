"""The write-time fold of inserted rows into one PO group's front.

Rows of one PO-code group tie on every PO attribute under every query, so
within a group only the strict TO-Pareto front can ever reach a skyline
(the engine's prefilter).  An insert batch therefore merges with its group
at write time, not per query: ``Pareto(M ∪ I) = Pareto(Pareto(M) ∪ I)``, so
the group's new front is one :meth:`pareto_mask
<repro.kernels.base.DominanceKernel.pareto_mask>` over the old front and
the new rows.  Strict dominance makes duplicates harmless: a new row equal
to a front row joins the front, exactly as in a fresh prefilter.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.data.columns import EncodedFrame
from repro.kernels import resolve_kernel


def cross_examine(
    kernel,
    frame: EncodedFrame,
    front: Sequence[int],
    new: Sequence[int],
) -> tuple[list[bool], list[bool]]:
    """Which rows of ``Pareto(front ∪ new)`` come from either side.

    ``front`` and ``new`` are rows of ``frame`` in one PO group.  Returns
    ``(keep_front, keep_new)``: per row of each side, whether no row of the
    union strictly TO-dominates it.
    """
    rows = list(front) + list(new)
    if len(rows) <= 1:
        mask = [True] * len(rows)
    else:
        mask = resolve_kernel(kernel).pareto_mask(frame.gather_to(rows))
    return list(mask[: len(front)]), list(mask[len(front) :])
