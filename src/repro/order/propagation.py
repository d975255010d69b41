"""Interval propagation along non-tree edges (exact encoding).

The spanning-tree interval of a node only captures preferences whose witness
path stays inside the tree.  Section III-B of the paper restores *exactness*
by propagating, for every non-tree edge, the target's intervals to the source
and onwards to all its ancestors, then merging / subsuming redundant
intervals.

The net effect of propagation is that the final interval set of a value ``x``
covers exactly the postorder numbers of all values reachable from ``x``
(including ``x`` itself).  This module provides both the paper's propagation
procedure (:func:`propagate_masks`, decoded by :func:`propagate_intervals`)
and the direct reachability-based construction
(:func:`reachability_intervals`), which is used as a correctness oracle in
the test suite.
"""

from __future__ import annotations

from collections.abc import Hashable

from repro.order.intervals import IntervalSet
from repro.order.spanning_tree import SpanningTree

Value = Hashable


def propagate_masks(tree: SpanningTree) -> dict[Value, int]:
    """Compute the exact interval set of every value by propagation, as bitmasks.

    The computation processes values in reverse topological order (worst
    values first), walking the order the DAG's acyclicity check already
    cached (:meth:`~repro.order.dag.PartialOrderDAG.topological_order`), so
    no sort runs here.  Each value starts with its own ``[minpost, post]`` tree
    interval; for every outgoing DAG edge, the child's (already final)
    interval set is added.  Tree children are included as well — their
    intervals are subsumed by the parent's tree interval whenever the child's
    reachable set stays inside the parent's subtree, but they contribute the
    intervals the child itself acquired through non-tree edges, which is what
    the paper's "copied to f and subsequently to c, b and a" step achieves.
    Each set is held as the bitmask of the postorder numbers it covers (see
    :meth:`IntervalSet.to_mask <repro.order.intervals.IntervalSet.to_mask>`),
    so adding a child's intervals is one OR, and the merging/subsumption of
    the paper's final column (Figure 2(d)) comes for free.

    Returns
    -------
    dict
        ``{value: mask}`` such that ``masks[x] & masks[y] == masks[y]`` holds
        iff ``x`` is preferred over (or equal to) ``y`` in the DAG.
    """
    dag = tree.dag
    result: dict[Value, int] = {}
    for value in reversed(dag.topological_order()):
        mask = tree.interval(value).mask()
        for child in dag.successors(value):
            mask |= result[child]
        result[value] = mask
    return result


def propagate_intervals(tree: SpanningTree) -> dict[Value, IntervalSet]:
    """:func:`propagate_masks` decoded into canonical interval sets."""
    return {
        value: IntervalSet.from_mask(mask)
        for value, mask in propagate_masks(tree).items()
    }


def reachability_intervals(tree: SpanningTree) -> dict[Value, IntervalSet]:
    """Direct construction of the exact interval sets from DAG reachability.

    For each value, collect the postorder numbers of the value itself and of
    every DAG descendant, and build the canonical interval set covering them.
    Equivalent to :func:`propagate_intervals`; kept as an independent oracle.
    """
    dag = tree.dag
    result: dict[Value, IntervalSet] = {}
    for value in dag.values:
        posts = [tree.post[value]]
        posts.extend(tree.post[d] for d in dag.descendants(value))
        result[value] = IntervalSet.from_points(posts)
    return result
