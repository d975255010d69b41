"""Spanning-tree extraction and postorder interval labelling.

Following Section II-B of the paper (method adopted from Agrawal et al.,
SIGMOD 1989), a spanning tree (in general a spanning *forest*, when the DAG
has several roots) is extracted from the partial-order DAG.  A postorder
traversal assigns to each node a ``post`` number and the interval
``[minpost, post]``, where ``minpost`` is the smallest ``post`` among the
node's tree descendants (including itself).  Containment between these
intervals captures exactly the preferences that follow *tree* paths; edges
left out of the tree ("non-tree edges") are handled later by interval
propagation (:mod:`repro.order.propagation`).
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass, field

from repro.exceptions import PartialOrderError
from repro.order.dag import PartialOrderDAG
from repro.order.intervals import Interval

Value = Hashable


@dataclass(slots=True)
class SpanningTree:
    """A spanning forest of a partial-order DAG with postorder labelling.

    Attributes
    ----------
    dag:
        The DAG the tree was extracted from.
    parent:
        Tree parent of every node (``None`` for forest roots).
    children:
        Tree children of every node, in deterministic order.
    post:
        Postorder number of every node (1-based, unique).
    minpost:
        Minimum postorder number in the node's tree subtree.
    """

    dag: PartialOrderDAG
    parent: dict[Value, Value | None]
    children: dict[Value, list[Value]]
    post: dict[Value, int]
    minpost: dict[Value, int]
    _tree_edges: set[tuple[Value, Value]] = field(init=False)

    def __post_init__(self) -> None:
        self._tree_edges = {
            (p, c) for c, p in self.parent.items() if p is not None
        }

    # ------------------------------------------------------------------ #
    # Interval access
    # ------------------------------------------------------------------ #
    def interval(self, value: Value) -> Interval:
        """The ``[minpost, post]`` interval of ``value``."""
        return Interval(self.minpost[value], self.post[value])

    def intervals(self) -> dict[Value, Interval]:
        """Intervals of all values."""
        return {value: self.interval(value) for value in self.dag.values}

    # ------------------------------------------------------------------ #
    # Edge classification
    # ------------------------------------------------------------------ #
    def is_tree_edge(self, better: Value, worse: Value) -> bool:
        return (better, worse) in self._tree_edges

    def tree_edges(self) -> list[tuple[Value, Value]]:
        return [(p, c) for c, p in self.parent.items() if p is not None]

    def non_tree_edges(self) -> list[tuple[Value, Value]]:
        """DAG edges that are not part of the spanning tree."""
        return [edge for edge in self.dag.edges if edge not in self._tree_edges]

    # ------------------------------------------------------------------ #
    # Queries used by the baselines
    # ------------------------------------------------------------------ #
    def tree_descendants(self, value: Value) -> set[Value]:
        """All tree descendants of ``value`` (excluding itself)."""
        result: set[Value] = set()
        stack = list(self.children[value])
        while stack:
            node = stack.pop()
            result.add(node)
            stack.extend(self.children[node])
        return result

    def tree_prefers(self, better: Value, worse: Value) -> bool:
        """Preference implied by the *tree only*: interval containment.

        This is the (inexact) relation the Chan et al. mapping relies on;
        it misses preferences whose only witness paths use non-tree edges.
        """
        if better == worse:
            return False
        return self.interval(better).contains(self.interval(worse))


def extract_spanning_tree(dag: PartialOrderDAG) -> SpanningTree:
    """Extract a spanning forest and compute the postorder interval labelling.

    The tree parent of a node with several DAG predecessors is its first
    predecessor in edge-insertion order; values with none are forest roots.
    """
    parent: dict[Value, Value | None] = {}
    children: dict[Value, list[Value]] = {v: [] for v in dag.values}
    for node in dag.values:
        predecessors = dag.predecessors(node)
        chosen = predecessors[0] if predecessors else None
        parent[node] = chosen
        if chosen is not None:
            children[chosen].append(node)

    post: dict[Value, int] = {}
    minpost: dict[Value, int] = {}
    counter = 0
    for root in (v for v in dag.values if parent[v] is None):
        counter = _postorder(root, children, post, minpost, counter)

    if len(post) != len(dag):  # pragma: no cover - defensive; DAGs always have roots
        raise PartialOrderError("spanning tree does not cover every value")

    return SpanningTree(dag=dag, parent=parent, children=children, post=post, minpost=minpost)


def _postorder(
    root: Value,
    children: dict[Value, list[Value]],
    post: dict[Value, int],
    minpost: dict[Value, int],
    counter: int,
) -> int:
    """Iterative postorder numbering of one tree of the forest.

    A subtree is numbered before its root and its first child's subtree
    first, so a node's ``minpost`` is its first child's (its own ``post``
    for a leaf).
    """
    stack: list[tuple[Value, int]] = [(root, 0)]
    while stack:
        node, child_index = stack[-1]
        kids = children[node]
        if child_index < len(kids):
            stack[-1] = (node, child_index + 1)
            stack.append((kids[child_index], 0))
        else:
            counter += 1
            post[node] = counter
            minpost[node] = minpost[kids[0]] if kids else counter
            stack.pop()
    return counter

