"""Uncovered levels of DAG nodes with respect to a spanning tree.

The SDC and SDC+ baselines (Chan et al., SIGMOD 2005; Section II-C of the
paper) stratify data by how much of the preference structure the spanning
tree fails to capture:

* a node is *completely covered* when every edge of every incoming path is a
  tree edge (uncovered level 0);
* otherwise its *uncovered level* is the maximum number of non-tree edges on
  any incoming path.

Points whose PO values are completely covered can be reported early by SDC,
because m-dominance is exact for them; SDC+ processes strata in increasing
uncovered level.
"""

from __future__ import annotations

from collections.abc import Hashable

from repro.order.spanning_tree import SpanningTree

Value = Hashable


def uncovered_levels(tree: SpanningTree) -> dict[Value, int]:
    """Uncovered level of every node (maximum non-tree edges on an incoming path).

    Computed by dynamic programming over a topological order: the level of a
    node is the maximum, over its incoming edges, of the predecessor's level
    plus one if the edge is a non-tree edge.  Roots have level 0.
    """
    dag = tree.dag
    levels: dict[Value, int] = {v: 0 for v in dag.values}
    for node in dag.topological_order():
        for child in dag.successors(node):
            penalty = 0 if tree.is_tree_edge(node, child) else 1
            candidate = levels[node] + penalty
            if candidate > levels[child]:
                levels[child] = candidate
    return levels


def completely_covered(tree: SpanningTree) -> set[Value]:
    """Nodes with uncovered level 0 (m-dominance is exact for these values)."""
    return {value for value, level in uncovered_levels(tree).items() if level == 0}


def strata(tree: SpanningTree) -> dict[int, list[Value]]:
    """Group the domain values by uncovered level (SDC+ strata), level-ordered."""
    levels = uncovered_levels(tree)
    grouped: dict[int, list[Value]] = {}
    for value in tree.dag.values:
        grouped.setdefault(levels[value], []).append(value)
    return dict(sorted(grouped.items()))
