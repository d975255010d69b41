"""The TSS domain encoding: topological ordinal + exact interval set per value.

:class:`DomainEncoding` bundles everything the TSS framework (Section III-B)
attaches to a partially ordered domain:

* ``A_TO`` — the totally ordered integer domain obtained by topologically
  sorting the DAG; a value's ``ordinal`` is its 1-based position in
  :meth:`PartialOrderDAG.topological_order
  <repro.order.dag.PartialOrderDAG.topological_order>`, the one order the
  library uses.  Because the sort respects every DAG edge, visiting points in
  ``A_TO`` order guarantees the *precedence* property.
* ``reach_masks`` — the exact interval set of every value (``[minpost,
  post]`` labels of the spanning tree that takes each value's first
  predecessor as its parent, plus propagation along non-tree edges) as one
  bitmask over postorder numbers, which makes the t-preference check
  *exact*: no false hits, no false misses.  ``intervals`` decodes the masks
  into :class:`~repro.order.intervals.IntervalSet` objects.

The same object also exposes the pieces needed by the Chan et al. baselines:
the single spanning-tree interval of each value (their incomplete mapping to
``I1 x I2``) and the strata information (completely/partially covered values
and uncovered levels).
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass
from functools import cached_property

from repro.exceptions import UnknownValueError
from repro.order.dag import PartialOrderDAG
from repro.order.intervals import Interval, IntervalSet
from repro.order.propagation import propagate_masks
from repro.order.spanning_tree import SpanningTree, extract_spanning_tree
from repro.order.toposort import ordinal_map
from repro.order.uncovered import uncovered_levels

Value = Hashable


@dataclass(frozen=True)
class DomainEncoding:
    """All per-value information TSS derives from a partially ordered domain."""

    dag: PartialOrderDAG
    order: tuple[Value, ...]
    tree: SpanningTree

    # ------------------------------------------------------------------ #
    # Topological (A_TO) side — precedence
    # ------------------------------------------------------------------ #
    @cached_property
    def ordinals(self) -> dict[Value, int]:
        """1-based ordinal of every value in the topological sort (its A_TO value)."""
        return ordinal_map(self.order)

    def ordinal(self, value: Value) -> int:
        try:
            return self.ordinals[value]
        except KeyError as exc:
            raise UnknownValueError(value) from exc

    def value_at(self, ordinal: int) -> Value:
        """Inverse of :meth:`ordinal` (1-based)."""
        if not 1 <= ordinal <= len(self.order):
            raise UnknownValueError(ordinal)
        return self.order[ordinal - 1]

    @property
    def cardinality(self) -> int:
        """Size of the domain (equals ``|A_TO|`` and ``|I1| = |I2|``)."""
        return len(self.order)

    # ------------------------------------------------------------------ #
    # Interval (I1 x I2) side — exactness
    # ------------------------------------------------------------------ #
    @cached_property
    def reach_masks(self) -> dict[Value, int]:
        """Exact interval set of every value as a bitmask over postorder numbers.

        Bit ``p`` is set iff the value reaches the node whose postorder number
        is ``p`` (tree intervals + propagation, see
        :func:`~repro.order.propagation.propagate_masks`).
        """
        return propagate_masks(self.tree)

    def reach_mask(self, value: Value) -> int:
        try:
            return self.reach_masks[value]
        except KeyError as exc:
            raise UnknownValueError(value) from exc

    @cached_property
    def intervals(self) -> dict[Value, IntervalSet]:
        """Exact interval set of every value, decoded from :attr:`reach_masks`."""
        return {
            value: IntervalSet.from_mask(mask) for value, mask in self.reach_masks.items()
        }

    def interval_set(self, value: Value) -> IntervalSet:
        try:
            return self.intervals[value]
        except KeyError as exc:
            raise UnknownValueError(value) from exc

    def tree_interval(self, value: Value) -> Interval:
        """The single spanning-tree ``[minpost, post]`` interval (baseline mapping)."""
        return self.tree.interval(value)

    def post_of(self, value: Value) -> int:
        """The value's postorder number in the spanning tree.

        ``x`` is t-preferred over (or equal to) ``y`` exactly when bit
        ``post_of(y)`` of ``reach_mask(x)`` is set — the cheap membership form
        of the t-preference check used on the algorithms' hot paths.
        """
        try:
            return self.tree.post[value]
        except KeyError as exc:
            raise UnknownValueError(value) from exc

    # ------------------------------------------------------------------ #
    # Preference checks
    # ------------------------------------------------------------------ #
    def t_prefers(self, better: Value, worse: Value) -> bool:
        """Exact strict preference via interval containment (Definition 1).

        Equivalent to DAG reachability: ``better`` is t-preferred over
        ``worse`` iff every interval of ``worse`` is contained in some
        interval of ``better`` (and the values differ) — in mask form, iff
        ``worse``'s mask is a subset of ``better``'s.
        """
        if better == worse:
            return False
        worse_mask = self.reach_mask(worse)
        return self.reach_mask(better) & worse_mask == worse_mask

    def t_prefers_or_equal(self, better: Value, worse: Value) -> bool:
        return better == worse or self.t_prefers(better, worse)

    def m_prefers(self, better: Value, worse: Value) -> bool:
        """Spanning-tree-only preference (the baselines' inexact relation)."""
        return self.tree.tree_prefers(better, worse)

    # ------------------------------------------------------------------ #
    # Range helpers (used for R-tree MBBs over the A_TO axis)
    # ------------------------------------------------------------------ #
    def values_in_range(self, low_ordinal: int, high_ordinal: int) -> list[Value]:
        """Domain values whose ordinal lies in ``[low_ordinal, high_ordinal]``."""
        low = max(1, low_ordinal)
        high = min(self.cardinality, high_ordinal)
        return [self.order[i - 1] for i in range(low, high + 1)]

    def range_mask(self, low_ordinal: int, high_ordinal: int) -> int:
        """Merged interval set (as a mask) of all values in an ``A_TO`` ordinal range.

        A point t-dominates an MBB on the PO dimension only if its interval
        set covers this merged set (i.e. it is preferred over *every* value
        the MBB may contain).
        """
        mask = 0
        for value in self.values_in_range(low_ordinal, high_ordinal):
            mask |= self.reach_masks[value]
        return mask

    def range_interval_set(self, low_ordinal: int, high_ordinal: int) -> IntervalSet:
        """:meth:`range_mask` decoded into an interval set."""
        return IntervalSet.from_mask(self.range_mask(low_ordinal, high_ordinal))

    # ------------------------------------------------------------------ #
    # Strata information for the SDC / SDC+ baselines
    # ------------------------------------------------------------------ #
    @cached_property
    def uncovered(self) -> dict[Value, int]:
        """Uncovered level of every value (0 = completely covered)."""
        return uncovered_levels(self.tree)

    def is_completely_covered(self, value: Value) -> bool:
        return self.uncovered[value] == 0

    @cached_property
    def max_uncovered_level(self) -> int:
        return max(self.uncovered.values(), default=0)


def encode_domain(dag: PartialOrderDAG) -> DomainEncoding:
    """Build the :class:`DomainEncoding` of a partially ordered domain.

    ``A_TO`` is the DAG's cached :meth:`~repro.order.dag.PartialOrderDAG.
    topological_order` and the interval labels come from its first-predecessor
    spanning tree (:func:`~repro.order.spanning_tree.extract_spanning_tree`).
    """
    return DomainEncoding(dag=dag, order=dag.topological_order(), tree=extract_spanning_tree(dag))
