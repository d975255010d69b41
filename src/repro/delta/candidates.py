"""The engine's candidate rows: per-PO-group fronts, kept exact under mutations.

The engine's prefilter keeps, per PO-value group, only the TO-Pareto front —
every dropped row is strictly TO-dominated by a live group sibling, and rows
of one group tie on every PO attribute under every query, so only front rows
can appear in any skyline.  :class:`BaseCandidateTracker` owns those fronts,
keyed by PO-code combination, over one row space: the base rows, then every
insert (:meth:`DeltaFrame.frame <repro.delta.frame.DeltaFrame.frame>`).  As
dTSS does per touched group (Section V), a mutation rebuilds only the
groups it touches:

* **Inserts** fold into each touched group as ``front := Pareto(front ∪
  new rows)`` (:func:`~repro.delta.merge.cross_examine`).  The fold is exact
  because ``Pareto(M ∪ I) = Pareto(Pareto(M) ∪ I)``.
* **Deletes** of a front row can resurrect siblings the front was masking,
  so the tracker also keeps every group's full membership (built lazily on
  the first delete with the frame's shared
  :meth:`~repro.data.columns.EncodedFrame.po_groups`, inserts included)
  and recomputes exactly the dirty groups' fronts with the same
  :meth:`pareto_mask <repro.kernels.base.DominanceKernel.pareto_mask>` call
  the prefilter uses.  Deleting a non-front row changes no front.

Either way the tracked fronts always equal what a fresh prefilter over the
live rows would return.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.data.columns import EncodedFrame
from repro.delta.merge import cross_examine

#: A PO-code combination (one frame code per PO attribute).
GroupKey = tuple[int, ...]


class BaseCandidateTracker:
    """Per-PO-group TO-Pareto fronts of the live rows, across mutations."""

    def __init__(
        self,
        frame: EncodedFrame,
        kernel,
        *,
        initial_rows: Sequence[int],
    ) -> None:
        #: The tracked row space (grows as inserts arrive, see :meth:`add_rows`).
        self.frame = frame
        self._kernel = kernel
        keys, members = frame.po_groups(initial_rows)
        #: The front rows of every non-empty group, keyed by PO codes.
        self.fronts: dict[GroupKey, list[int]] = dict(zip(keys, members))
        #: Rows over all fronts — kept as a number so that readers outside
        #: the engine's write latch (``summary()``) never iterate ``fronts``.
        self.candidate_count = len(initial_rows)
        #: :meth:`candidates`, until a front changes.
        self._candidates: list[int] | None = sorted(initial_rows)
        self._members: dict[GroupKey, list[int]] | None = None
        self._removed: set[int] = set()

    def _group_key(self, row: int) -> GroupKey:
        return tuple(int(code) for code in self.frame.codes[row])

    def _set_front(self, key: GroupKey, front: list[int]) -> None:
        self.candidate_count += len(front) - len(self.fronts.get(key, ()))
        self._candidates = None
        if front:
            self.fronts[key] = front
        else:
            self.fronts.pop(key, None)

    def add_rows(
        self, frame: EncodedFrame, rows: Sequence[int]
    ) -> dict[GroupKey, list[int]]:
        """Fold inserted ``rows`` of ``frame`` into their groups' fronts.

        ``frame`` extends the tracked row space (same rows first, the new
        ones after).  A new row joins its group's front unless a front row
        strictly TO-dominates it (an exact duplicate of a front row joins),
        and it evicts the front rows it strictly dominates.  Returns the new
        front of every group whose front changed — an empty mapping when
        every new row was dominated.
        """
        self.frame = frame
        keys, groups = frame.po_groups(rows)
        if self._members is not None:
            for key, new in zip(keys, groups):
                self._members.setdefault(key, []).extend(new)
        dirty: dict[GroupKey, list[int]] = {}
        for key, new in zip(keys, groups):
            front = self.fronts.get(key, [])
            keep_front, keep_new = cross_examine(self._kernel, frame, front, new)
            if all(keep_front) and not any(keep_new):
                continue
            front = [row for row, keep in zip(front, keep_front) if keep]
            front.extend(row for row, keep in zip(new, keep_new) if keep)
            self._set_front(key, front)
            dirty[key] = front
        return dirty

    def _recompute_front(self, key: GroupKey) -> list[int]:
        removed = self._removed
        members = [row for row in self._members[key] if row not in removed]
        self._members[key] = members
        if len(members) <= 1:
            front = list(members)  # never alias the membership list
        else:
            mask = self._kernel.pareto_mask(self.frame.gather_to(members))
            front = [row for row, keep in zip(members, mask) if keep]
        self._set_front(key, front)
        return front

    def remove_rows(self, rows: Sequence[int]) -> dict[GroupKey, list[int]]:
        """Drop deleted rows of the tracked row space.

        Returns the recomputed front (ascending rows, possibly empty) of
        every group whose front changed, keyed by PO-code combination — an
        empty mapping when the candidate set still stands.
        """
        if self._members is None:
            self._members = dict(zip(*self.frame.po_groups()))
        dirty: set[GroupKey] = set()
        for row in rows:
            row = int(row)
            if not 0 <= row < len(self.frame):
                continue
            self._removed.add(row)
            key = self._group_key(row)
            # Only a front (candidate) deletion can change the front:
            # removing a dominated member leaves the Pareto set intact.
            if row in self.fronts.get(key, ()):
                dirty.add(key)
        return {key: self._recompute_front(key) for key in dirty}

    def candidates(self) -> list[int]:
        """The current candidate rows, ascending (prefilter contract).

        Kept until a front changes; callers must not modify the list."""
        if self._candidates is None:
            self._candidates = sorted(row for front in self.fronts.values() for row in front)
        return self._candidates
