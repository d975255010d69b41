"""Dyadic-range pre-computation of interval sets for ``A_TO`` ranges.

Checking whether a point t-dominates an R-tree MBB requires the merged
interval set of *every* PO value inside the MBB's ``A_TO`` range (Section
IV-B, first optimization).  Recomputing that union per MBB touches up to
``|A_TO|`` values; pre-computing it for every possible range needs quadratic
space.  The paper's compromise is to pre-compute the interval sets of the
*dyadic ranges* of the domain — the nodes of a binary tree built over
``A_TO`` — so that any range decomposes into ``O(log |range|)`` pre-computed
pieces at linear storage cost.  Interval sets are held as bitmasks (see
:attr:`DomainEncoding.reach_masks
<repro.order.encoding.DomainEncoding.reach_masks>`), so merging pieces is OR.
"""

from __future__ import annotations

from repro.exceptions import PartialOrderError
from repro.order.encoding import DomainEncoding


class DyadicIntervalCache:
    """Pre-computed interval-set masks for the dyadic ranges of one ``A_TO`` domain.

    The domain ``[1, n]`` is padded to the next power of two ``m``; the cache
    stores one mask per node of a complete binary tree over ``[1, m]`` (only
    nodes that intersect the real domain are materialized).
    :meth:`range_mask` answers any ordinal range by OR-ing at most
    ``2 log m`` cached masks.
    """

    def __init__(self, encoding: DomainEncoding) -> None:
        self.encoding = encoding
        self.domain_size = encoding.cardinality
        if self.domain_size < 1:
            raise PartialOrderError("cannot build a dyadic cache over an empty domain")
        size = 1
        while size < self.domain_size:
            size *= 2
        self._padded_size = size
        # _cache[(level_size, start)] = merged mask of ordinals
        # [start, start + level_size - 1] intersected with the real domain.
        self._cache: dict[tuple[int, int], int] = {}
        self._build()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def _build(self) -> None:
        # Leaves: single ordinals.
        masks = self.encoding.reach_masks
        for ordinal, value in enumerate(self.encoding.order, start=1):
            self._cache[(1, ordinal)] = masks[value]
        # Internal dyadic nodes, bottom-up; a node is materialized iff its
        # left half is (its start lies inside the real domain).
        size = 2
        while size <= self._padded_size:
            half = size // 2
            for start in range(1, self.domain_size + 1, size):
                self._cache[(size, start)] = self._cache[(half, start)] | self._cache.get(
                    (half, start + half), 0
                )
            size *= 2

    @property
    def num_cached_ranges(self) -> int:
        return len(self._cache)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def range_mask(self, low_ordinal: int, high_ordinal: int) -> int:
        """Merged interval-set mask of all values with ordinal in ``[low, high]``."""
        low = max(1, int(low_ordinal))
        high = min(self.domain_size, int(high_ordinal))
        mask = 0
        if low <= high:
            cache = self._cache
            for piece in self._decompose(low, high):
                mask |= cache[piece]
        return mask

    def _decompose(self, low: int, high: int) -> list[tuple[int, int]]:
        """Cover ``[low, high]`` with maximal dyadic ranges (canonical decomposition)."""
        ranges: list[tuple[int, int]] = []
        position = low
        while position <= high:
            # Largest dyadic block starting at `position` (alignment constraint)
            # that does not extend past `high`.
            size = 1
            while (
                size * 2 <= self._padded_size
                and (position - 1) % (size * 2) == 0
                and position + size * 2 - 1 <= high
            ):
                size *= 2
            ranges.append((size, position))
            position += size
        return ranges
