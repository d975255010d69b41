"""Incremental maintenance of the base-candidate set under deletes.

The engine's prefilter keeps, per PO-value group, only the TO-Pareto front —
every dropped row is strictly TO-dominated by a live group sibling.  Deleting
a *front* row can therefore resurrect siblings the prefilter dropped, so the
candidate set cannot be maintained by subtraction alone.
:class:`BaseCandidateTracker` keeps the full initial membership of every
group (built lazily on the first base delete with the frame's shared
:meth:`~repro.data.columns.EncodedFrame.po_groups`) plus the set of removed
rows, and recomputes exactly the dirty groups' fronts with the same
:meth:`pareto_mask <repro.kernels.base.DominanceKernel.pareto_mask>` call the
prefilter used, so the tracked candidate set always equals what a fresh
prefilter over the live base rows would return.

The candidate set is the union of the per-group fronts, so per-group front
sets are never stored: a row is a front row iff it is a candidate, and a
dirty group's current front is recovered as ``live members ∩ candidates``.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.data.columns import EncodedFrame

#: A PO-code combination (one frame code per PO attribute).
GroupKey = tuple[int, ...]


class BaseCandidateTracker:
    """Tracks the engine's base candidate rows across base-row deletes."""

    def __init__(
        self,
        frame: EncodedFrame,
        kernel,
        *,
        initial_rows: Sequence[int],
    ) -> None:
        self._frame = frame
        self._kernel = kernel
        self._candidates = set(int(row) for row in initial_rows)
        self._members: dict[GroupKey, list[int]] | None = None
        self._removed: set[int] = set()

    def _group_key(self, row: int) -> GroupKey:
        return tuple(int(code) for code in self._frame.codes[row])

    def _recompute_front(self, key: GroupKey) -> list[int]:
        removed = self._removed
        members = [row for row in self._members[key] if row not in removed]
        # Candidates are exactly the union of group fronts, so this group's
        # surviving front members are its members that are still candidates.
        old_front = [row for row in members if row in self._candidates]
        if len(members) <= 1:
            front = members
        else:
            mask = self._kernel.pareto_mask(self._frame.gather_to(members))
            front = [row for row, keep in zip(members, mask) if keep]
        self._candidates.difference_update(old_front)
        self._candidates.update(front)
        return front

    def remove_rows(self, rows: Sequence[int]) -> dict[GroupKey, list[int]]:
        """Drop deleted base rows.

        Returns the recomputed front (ascending rows, possibly empty) of
        every group whose front changed, keyed by PO-code combination — an
        empty mapping when the candidate set still stands.
        """
        if self._members is None:
            self._members = dict(zip(*self._frame.po_groups()))
        dirty: set[GroupKey] = set()
        for row in rows:
            row = int(row)
            if not 0 <= row < len(self._frame):
                continue
            self._removed.add(row)
            if row in self._candidates:
                # Only a front (candidate) deletion can change the front:
                # removing a dominated member leaves the Pareto set intact.
                self._candidates.discard(row)
                dirty.add(self._group_key(row))
        return {key: self._recompute_front(key) for key in dirty}

    def candidates(self) -> list[int]:
        """The current candidate rows, ascending (prefilter contract)."""
        return sorted(self._candidates)
