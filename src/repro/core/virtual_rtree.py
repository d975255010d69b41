"""Main-memory index of virtual skyline points for fast t-dominance checks.

Second optimization of Section IV-B: every skyline point is represented by
*virtual points* in the space ``TO-dims x (I1, I2) per PO attribute`` — one
virtual point per combination of intervals associated with its PO values.
Checking whether a candidate point or MBB is t-dominated then reduces to one
or a few Boolean range queries against this index, instead of a scan over the
whole skyline list:

* a candidate **point** is dominated iff some virtual point is at least as
  good on every TO dimension and its interval contains the candidate value's
  own postorder number on every PO dimension (a single Boolean query);
* a candidate **MBB** is safely prunable when, for every combination of
  intervals in the merged interval sets of its ``A_TO`` ranges, some virtual
  point covers the combination while being at least as good on the TO
  dimensions.  Every potential point inside the MBB is then dominated by one
  of the skyline points answering these queries.

The virtual points live in an incrementally grown
:class:`~repro.index.rtree.RTree`, which answers the Boolean range queries
above.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

from repro.core.mapping import MappedPoint
from repro.index.geometry import Rect
from repro.index.rtree import RTree
from repro.order.encoding import DomainEncoding
from repro.order.intervals import IntervalSet

#: Bound of the open ends of query ranges (TO values may themselves be ±inf).
_INFINITY = float("inf")

#: Maximum number of interval combinations examined when testing one MBB.
#: Exceeding the cap makes the check answer "not dominated", which is always
#: safe (the node is simply expanded instead of pruned).
DEFAULT_MAX_COMBINATIONS = 128


class VirtualPointIndex:
    """The global main-memory index ``Tm`` of virtual skyline points."""

    def __init__(
        self,
        num_total_order: int,
        encodings: Sequence[DomainEncoding],
        *,
        max_entries: int = 16,
        max_combinations: int = DEFAULT_MAX_COMBINATIONS,
    ) -> None:
        self.num_total_order = num_total_order
        self.encodings = tuple(encodings)
        self.max_combinations = max_combinations
        self.dimensions = num_total_order + 2 * len(self.encodings)
        self._tree = RTree(self.dimensions, max_entries=max_entries)
        self._num_skyline_points = 0
        self._num_virtual_points = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def num_skyline_points(self) -> int:
        return self._num_skyline_points

    @property
    def num_virtual_points(self) -> int:
        return self._num_virtual_points

    def __len__(self) -> int:
        return self._num_virtual_points

    # ------------------------------------------------------------------ #
    # Insertion
    # ------------------------------------------------------------------ #
    def insert_skyline_point(self, to_values: Sequence[float], po_values: Sequence[object], payload: object) -> int:
        """Insert all virtual points of one new skyline point; returns how many."""
        interval_sets = [
            encoding.interval_set(value) for encoding, value in zip(self.encodings, po_values)
        ]
        inserted = 0
        for combination in itertools.product(*(s.intervals for s in interval_sets)):
            coords = list(float(v) for v in to_values)
            for interval in combination:
                coords.append(float(interval.low))
                coords.append(float(interval.high))
            self._tree.insert(tuple(coords), payload)
            inserted += 1
        self._num_skyline_points += 1
        self._num_virtual_points += inserted
        return inserted

    def insert_mapped_point(self, point: MappedPoint) -> int:
        """Convenience wrapper for static sTSS (payload = mapped point index)."""
        return self.insert_skyline_point(point.to_values, point.po_values, point.index)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def dominates_candidate_point(
        self, to_values: Sequence[float], po_values: Sequence[object]
    ) -> bool:
        """Is a candidate point t-dominated by any already-inserted skyline point?

        Exact for candidates whose value combination differs from every
        skyline point's (guaranteed by the duplicate grouping of
        :class:`~repro.core.mapping.TSSMapping`).
        """
        posts = [
            encoding.tree.post[value] for encoding, value in zip(self.encodings, po_values)
        ]
        return self._any_in_box(*self._query_box(to_values, [(post, post) for post in posts]))

    def dominates_candidate_mbb(
        self,
        low: Sequence[float],
        high: Sequence[float],
        range_sets: Sequence[IntervalSet],
    ) -> bool:
        """May the MBB be pruned (every potential point inside it is dominated)?

        ``low``/``high`` are the MBB corners in the mapped (``TO x A_TO``)
        space; ``range_sets`` holds, per PO attribute, the merged interval set
        of the MBB's ``A_TO`` range.  Answers "False" (do not prune) when any
        range set is empty or the number of combinations exceeds the cap.
        """
        if self._num_skyline_points == 0:
            return False
        combination_count = 1
        for range_set in range_sets:
            if len(range_set) == 0:
                return False
            combination_count *= len(range_set)
            if combination_count > self.max_combinations:
                return False
        to_bounds = low[: self.num_total_order]
        # Fast path: one query with each range set's minimum bounding
        # interval.  A virtual point covering the MBI combination covers every
        # interval combination at once, so a hit proves dominance without
        # enumerating the product.
        if combination_count > 1:
            mbi_low, mbi_high = self._query_box(
                to_bounds,
                [
                    (mbi.low, mbi.high)
                    for mbi in (s.bounding_interval() for s in range_sets)
                ],
            )
            if self._any_in_box(mbi_low, mbi_high):
                return True
        # Every interval combination must be covered by some virtual point.
        return all(
            self._any_in_box(
                *self._query_box(
                    to_bounds,
                    [(interval.low, interval.high) for interval in combination],
                )
            )
            for combination in itertools.product(*(s.intervals for s in range_sets))
        )

    def _any_in_box(self, low: Sequence[float], high: Sequence[float]) -> bool:
        return self._tree.boolean_range_query(Rect(tuple(low), tuple(high)))

    def _query_box(
        self, to_upper_bounds: Sequence[float], interval_bounds: Sequence[tuple[float, float]]
    ) -> tuple[list[float], list[float]]:
        """Query box: TO dims in (-inf, bound]; per PO attr I1 <= low, I2 >= high."""
        low = [-_INFINITY] * self.num_total_order
        high = [float(bound) for bound in to_upper_bounds]
        for interval_low, interval_high in interval_bounds:
            low.append(-_INFINITY)
            high.append(float(interval_low))
            low.append(float(interval_high))
            high.append(_INFINITY)
        return low, high
