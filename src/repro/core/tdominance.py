"""Exact t-dominance checks for mapped points and R-tree MBBs.

Definition 1 (t-preference): value ``x`` is t-preferred over ``y`` iff every
interval associated with ``y`` is contained in (or coincides with) some
interval associated with ``x``.  Because the interval sets produced by
:mod:`repro.order.propagation` cover exactly the postorder numbers of a
value's DAG descendants, t-preference coincides with reachability — the check
is exact.

Definition 2 (t-dominance): point ``p`` t-dominates ``q`` iff it is at least
as good on every TO dimension, ``q`` is not t-preferred over ``p`` on any PO
dimension, and it is strictly better somewhere.  For points with *distinct*
value combinations (guaranteed by the duplicate grouping in
:class:`~repro.core.mapping.TSSMapping`), this reduces to "weakly better
everywhere": at least as good on the TO dimensions and t-preferred-or-equal
on the PO dimensions.

The same checker also decides t-dominance of an MBB (a point t-dominates an
MBB when it would t-dominate every possible point inside it), using the
merged interval set of the MBB's ``A_TO`` range per PO attribute.

Every interval set here is held as its bitmask over postorder numbers (see
:attr:`DomainEncoding.reach_masks
<repro.order.encoding.DomainEncoding.reach_masks>`): containment is
``a & b == b``, membership of one postorder number is one shift-AND.
"""

from __future__ import annotations

import weakref
from collections.abc import Hashable, Sequence

from repro.core.dyadic import DyadicIntervalCache
from repro.core.mapping import MappedPoint, TSSMapping
from repro.kernels import TDominanceTables, resolve_kernel
from repro.order.encoding import DomainEncoding
from repro.order.intervals import mask_bounds

Value = Hashable

#: One :class:`TDominanceTables` per mapping, shared by every checker built
#: over it (the preference matrices are O(domain²) to build).
_TABLES_CACHE: "weakref.WeakKeyDictionary[TSSMapping, TDominanceTables]" = (
    weakref.WeakKeyDictionary()
)


def tdominance_tables(mapping: TSSMapping) -> TDominanceTables:
    """The (cached) kernel lookup tables of one mapping."""
    tables = _TABLES_CACHE.get(mapping)
    if tables is None:
        tables = TDominanceTables.from_encodings(
            mapping.num_total_order, mapping.encodings
        )
        _TABLES_CACHE[mapping] = tables
    return tables


class TDominanceChecker:
    """t-dominance between mapped points / MBBs for one :class:`TSSMapping`."""

    def __init__(
        self, mapping: TSSMapping, *, use_dyadic_cache: bool = True, kernel=None
    ) -> None:
        self.mapping = mapping
        self.encodings: tuple[DomainEncoding, ...] = mapping.encodings
        self.kernel = resolve_kernel(kernel)
        self._dyadic: list[DyadicIntervalCache] | None = None
        if use_dyadic_cache:
            self._dyadic = [DyadicIntervalCache(encoding) for encoding in self.encodings]
        # Hot-path caches: postorder number and interval-set mask per PO value.
        self._posts: tuple[dict[Value, int], ...] = tuple(
            encoding.tree.post for encoding in self.encodings
        )
        self._masks: tuple[dict[Value, int], ...] = tuple(
            encoding.reach_masks for encoding in self.encodings
        )

    # ------------------------------------------------------------------ #
    # Value-level checks
    # ------------------------------------------------------------------ #
    def t_prefers_or_equal(self, po_index: int, better: Value, worse: Value) -> bool:
        return self.encodings[po_index].t_prefers_or_equal(better, worse)

    def range_interval_set(self, po_index: int, low_ordinal: int, high_ordinal: int) -> int:
        """Merged interval set of an ``A_TO`` ordinal range, as a mask.

        Served by the dyadic cache when enabled; decode with
        :meth:`IntervalSet.from_mask
        <repro.order.intervals.IntervalSet.from_mask>` where an interval set
        is needed.
        """
        if self._dyadic is not None:
            return self._dyadic[po_index].range_mask(low_ordinal, high_ordinal)
        return self.encodings[po_index].range_mask(low_ordinal, high_ordinal)

    # ------------------------------------------------------------------ #
    # Point-level checks
    # ------------------------------------------------------------------ #
    def dominates_point(self, p: MappedPoint, q: MappedPoint) -> bool:
        """Exact t-dominance between two mapped points (Definition 2)."""
        strictly_better = False
        for a, b in zip(p.to_values, q.to_values):
            if a > b:
                return False
            if a < b:
                strictly_better = True
        for po_index, (value_p, value_q) in enumerate(zip(p.po_values, q.po_values)):
            if value_p == value_q:
                continue
            if self.encodings[po_index].t_prefers(value_p, value_q):
                strictly_better = True
            else:
                return False
        return strictly_better

    def weakly_dominates_point(self, p: MappedPoint, q: MappedPoint) -> bool:
        """At least as good everywhere (sufficient for distinct value combinations).

        The PO test uses the membership form of t-preference: ``p``'s interval
        set must cover ``q``'s own postorder number, which is equivalent to
        covering ``q``'s whole interval set but needs a single bit test.
        """
        for a, b in zip(p.to_values, q.to_values):
            if a > b:
                return False
        for po_index, (value_p, value_q) in enumerate(zip(p.po_values, q.po_values)):
            if value_p == value_q:
                continue
            if not self._masks[po_index][value_p] >> self._posts[po_index][value_q] & 1:
                return False
        return True

    # ------------------------------------------------------------------ #
    # MBB-level checks
    # ------------------------------------------------------------------ #
    def dominates_mbb(
        self, p: MappedPoint, low: Sequence[float], high: Sequence[float]
    ) -> bool:
        """True iff ``p`` t-dominates every possible point inside the MBB.

        ``p`` must be at least as good as the MBB's best corner on every TO
        dimension and t-preferred over (or equal to) *every* PO value whose
        ordinal falls in the MBB's ``A_TO`` range, i.e. its interval set must
        cover the range's merged interval set.
        """
        offset = self.mapping.to_offset
        for dimension in range(offset):
            if p.to_values[dimension] > low[dimension]:
                return False
        # Cheap necessary condition first: to be preferred over every value in
        # the range, p's own ordinal must not exceed the range's lower bound.
        for po_index in range(self.mapping.num_partial_order):
            if p.coords[offset + po_index] > low[offset + po_index]:
                return False
        for po_index in range(self.mapping.num_partial_order):
            low_ordinal = int(low[offset + po_index])
            high_ordinal = int(high[offset + po_index])
            range_mask = self.range_interval_set(po_index, low_ordinal, high_ordinal)
            if self._masks[po_index][p.po_values[po_index]] & range_mask != range_mask:
                return False
        return True

    # ------------------------------------------------------------------ #
    # Candidate-vs-skyline-list checks (unoptimized sTSS path)
    # ------------------------------------------------------------------ #
    def point_dominated_by_any(
        self, skyline: Sequence[MappedPoint], q: MappedPoint, *, counter=None
    ) -> bool:
        """Is ``q`` t-dominated by any point in ``skyline`` (list scan)?"""
        for p in skyline:
            if counter is not None:
                counter.dominance_checks += 1
            if self.weakly_dominates_point(p, q):
                return True
        return False

    def mbb_dominated_by_any(
        self,
        skyline: Sequence[MappedPoint],
        low: Sequence[float],
        high: Sequence[float],
        *,
        counter=None,
    ) -> bool:
        """Is the MBB t-dominated by any single point in ``skyline`` (list scan)?"""
        for p in skyline:
            if counter is not None:
                counter.dominance_checks += 1
            if self.dominates_mbb(p, low, high):
                return True
        return False

    # ------------------------------------------------------------------ #
    # Kernel-backed skyline store (batched sTSS path)
    # ------------------------------------------------------------------ #
    def make_skyline_store(self) -> "TDominanceSkylineStore":
        """An empty kernel-backed store for the skyline found so far."""
        return TDominanceSkylineStore(self)

    def store_dominates_point(
        self,
        store: "TDominanceSkylineStore",
        q: MappedPoint,
        *,
        counter=None,
    ) -> bool:
        """Batched form of :meth:`point_dominated_by_any` over a store."""
        return store.kernel_store.any_weakly_dominates(
            q.to_values, store.codes_of(q), counter
        )

    def store_dominates_mbb(
        self,
        store: "TDominanceSkylineStore",
        low: Sequence[float],
        high: Sequence[float],
        *,
        counter=None,
    ) -> bool:
        """Batched form of :meth:`mbb_dominated_by_any` over a store.

        Necessary conditions (TO corner, ordinal bound, minimum-bounding-
        interval containment) are evaluated vectorized over the whole store;
        only the survivors go through the exact mask containment test, where
        an empty range mask is covered trivially.
        """
        offset = self.mapping.to_offset
        range_masks = [
            self.range_interval_set(
                po_index, int(low[offset + po_index]), int(high[offset + po_index])
            )
            for po_index in range(self.mapping.num_partial_order)
        ]
        range_mbis: list[tuple[float, float]] = [
            mask_bounds(mask) if mask else (float("inf"), float("-inf"))
            for mask in range_masks
        ]
        alive = store.kernel_store.mbb_candidates(
            low[:offset], low[offset:], range_mbis, counter
        )
        codes = store.codes
        tests = [
            (po_index, mask, store.tables.masks[po_index])
            for po_index, mask in enumerate(range_masks)
            if mask
        ]
        return any(
            all(masks[codes[i][po_index]] & mask == mask for po_index, mask, masks in tests)
            for i in alive
        )


class TDominanceSkylineStore:
    """The skyline found so far, mirrored into a kernel store.

    Keeps the members' PO codes on the Python side as well, because the exact
    MBB phase needs each survivor's interval-set mask.
    """

    __slots__ = ("checker", "tables", "kernel_store", "codes")

    def __init__(self, checker: TDominanceChecker) -> None:
        self.checker = checker
        self.tables = tdominance_tables(checker.mapping)
        self.kernel_store = checker.kernel.tdominance_store(self.tables)
        self.codes: list[tuple[int, ...]] = []

    def codes_of(self, point: MappedPoint) -> tuple[int, ...]:
        """PO codes (topological position, 0-based) of one mapped point.

        Served from the mapping's precomputed code table, so candidates
        stream through the kernel with no per-check conversion.
        """
        return self.checker.mapping.point_codes[point.index]

    def append(self, point: MappedPoint) -> None:
        codes = self.codes_of(point)
        self.kernel_store.append(point.to_values, codes)
        self.codes.append(codes)

    def __len__(self) -> int:
        return len(self.codes)
