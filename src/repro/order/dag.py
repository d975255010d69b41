"""Partial-order DAG (Hasse diagram) over a finite domain of values.

A partially ordered domain is described by a directed acyclic graph whose
nodes are the domain values.  An edge ``x -> y`` states that ``x`` is
*preferred over* ``y`` (smaller is better, mirroring the paper's convention
``x < y``).  A value ``x`` is preferred over ``y`` whenever a directed path
from ``x`` to ``y`` exists.

The class below is deliberately self-contained (no networkx dependency in the
core path) because reachability, transitive reduction and edge classification
are on the hot path of every algorithm in the library.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Mapping
from typing import Any

from repro.exceptions import CycleError, PartialOrderError, UnknownValueError

Value = Hashable


class PartialOrderDAG:
    """A directed acyclic graph describing preferences over a finite domain.

    Parameters
    ----------
    values:
        The domain values (nodes).  Order of first appearance is preserved and
        used as a deterministic tie-breaker throughout the library.
    edges:
        Iterable of ``(better, worse)`` pairs.  Both endpoints must belong to
        ``values``.  Parallel edges are collapsed; self-loops are rejected.

    Raises
    ------
    CycleError
        If the resulting graph contains a directed cycle.
    UnknownValueError
        If an edge references a value outside the domain.
    """

    __slots__ = ("_values", "_index", "_succ", "_pred", "_reach_cache")

    def __init__(self, values: Iterable[Value], edges: Iterable[tuple[Value, Value]] = ()) -> None:
        self._values: list[Value] = []
        self._index: dict[Value, int] = {}
        for value in values:
            if value in self._index:
                raise PartialOrderError(f"duplicate domain value: {value!r}")
            self._index[value] = len(self._values)
            self._values.append(value)

        self._succ: dict[Value, list[Value]] = {v: [] for v in self._values}
        self._pred: dict[Value, list[Value]] = {v: [] for v in self._values}
        self._reach_cache: dict[Value, frozenset[Value]] | None = None

        for better, worse in edges:
            self.add_edge(better, worse, _defer_cycle_check=True)
        self._assert_acyclic()

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    def add_edge(self, better: Value, worse: Value, *, _defer_cycle_check: bool = False) -> None:
        """Add a preference edge ``better -> worse``.

        Adding edges invalidates any cached reachability information.
        """
        if better not in self._index:
            raise UnknownValueError(better)
        if worse not in self._index:
            raise UnknownValueError(worse)
        if better == worse:
            raise PartialOrderError(f"self-loop on value {better!r} is not allowed")
        if worse not in self._succ[better]:
            self._succ[better].append(worse)
            self._pred[worse].append(better)
        self._reach_cache = None
        if not _defer_cycle_check:
            self._assert_acyclic()

    @classmethod
    def from_mapping(cls, successors: Mapping[Value, Iterable[Value]]) -> "PartialOrderDAG":
        """Build a DAG from a ``{value: [worse values]}`` adjacency mapping.

        Values appearing only on the right-hand side are added to the domain
        after the keys, in order of first appearance.
        """
        values: list[Value] = []
        seen: set[Value] = set()
        for value in successors:
            if value not in seen:
                seen.add(value)
                values.append(value)
        for children in successors.values():
            for child in children:
                if child not in seen:
                    seen.add(child)
                    values.append(child)
        edges = [(v, w) for v, children in successors.items() for w in children]
        return cls(values, edges)

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def values(self) -> tuple[Value, ...]:
        """Domain values in insertion order."""
        return tuple(self._values)

    @property
    def edges(self) -> list[tuple[Value, Value]]:
        """All preference edges as ``(better, worse)`` pairs."""
        return [(u, v) for u in self._values for v in self._succ[u]]

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, value: Value) -> bool:
        return value in self._index

    def __iter__(self) -> Iterator[Value]:
        return iter(self._values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PartialOrderDAG(|V|={len(self)}, |E|={self.num_edges})"

    @property
    def num_edges(self) -> int:
        return sum(len(children) for children in self._succ.values())

    def index_of(self, value: Value) -> int:
        """Return the insertion index of ``value`` (deterministic tie-breaker)."""
        try:
            return self._index[value]
        except KeyError as exc:
            raise UnknownValueError(value) from exc

    def successors(self, value: Value) -> tuple[Value, ...]:
        """Direct successors (immediately worse values) of ``value``."""
        self._check(value)
        return tuple(self._succ[value])

    def predecessors(self, value: Value) -> tuple[Value, ...]:
        """Direct predecessors (immediately better values) of ``value``."""
        self._check(value)
        return tuple(self._pred[value])

    def roots(self) -> tuple[Value, ...]:
        """Values with no incoming edge (maximally preferred values)."""
        return tuple(v for v in self._values if not self._pred[v])

    def leaves(self) -> tuple[Value, ...]:
        """Values with no outgoing edge (least preferred values)."""
        return tuple(v for v in self._values if not self._succ[v])

    def in_degree(self, value: Value) -> int:
        self._check(value)
        return len(self._pred[value])

    def out_degree(self, value: Value) -> int:
        self._check(value)
        return len(self._succ[value])

    # ------------------------------------------------------------------ #
    # Reachability (the ground-truth preference relation)
    # ------------------------------------------------------------------ #
    def descendants(self, value: Value) -> frozenset[Value]:
        """All values strictly worse than ``value`` (reachable via >=1 edge)."""
        self._check(value)
        cache = self._reachability()
        return cache[value]

    def ancestors(self, value: Value) -> frozenset[Value]:
        """All values strictly better than ``value``."""
        self._check(value)
        result: set[Value] = set()
        stack = list(self._pred[value])
        while stack:
            node = stack.pop()
            if node not in result:
                result.add(node)
                stack.extend(self._pred[node])
        return frozenset(result)

    def is_preferred(self, better: Value, worse: Value) -> bool:
        """True iff ``better`` strictly precedes ``worse`` in the partial order."""
        self._check(better)
        self._check(worse)
        if better == worse:
            return False
        return worse in self._reachability()[better]

    def is_preferred_or_equal(self, better: Value, worse: Value) -> bool:
        """True iff ``better`` precedes or equals ``worse``."""
        return better == worse or self.is_preferred(better, worse)

    def are_comparable(self, x: Value, y: Value) -> bool:
        """True iff ``x`` and ``y`` are related in either direction (or equal)."""
        return x == y or self.is_preferred(x, y) or self.is_preferred(y, x)

    def compare(self, x: Value, y: Value) -> int | None:
        """Three-way comparison: ``-1`` if x better, ``1`` if y better, ``0`` if
        equal, ``None`` if incomparable."""
        if x == y:
            return 0
        if self.is_preferred(x, y):
            return -1
        if self.is_preferred(y, x):
            return 1
        return None

    def _reachability(self) -> dict[Value, frozenset[Value]]:
        """Strict descendants of every node, computed once and cached."""
        if self._reach_cache is None:
            order = self._topological_order()
            reach: dict[Value, set[Value]] = {v: set() for v in self._values}
            for node in reversed(order):
                acc = reach[node]
                for child in self._succ[node]:
                    acc.add(child)
                    acc |= reach[child]
            self._reach_cache = {v: frozenset(s) for v, s in reach.items()}
        return self._reach_cache

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #
    def _topological_order(self) -> list[Value]:
        """Kahn topological order used internally; raises on cycles."""
        indegree = {v: len(self._pred[v]) for v in self._values}
        frontier = [v for v in self._values if indegree[v] == 0]
        order: list[Value] = []
        cursor = 0
        while cursor < len(frontier):
            node = frontier[cursor]
            cursor += 1
            order.append(node)
            for child in self._succ[node]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    frontier.append(child)
        if len(order) != len(self._values):
            raise CycleError("preference graph contains a cycle")
        return order

    def _assert_acyclic(self) -> None:
        self._topological_order()

    def depths(self) -> dict[Value, int]:
        """Per node: the length (in edges) of the longest path reaching it.

        Strictly increasing along every preference edge, so a value's depth
        is smaller than that of every value it is preferred over.
        """
        longest = {v: 0 for v in self._values}
        for node in self._topological_order():
            for child in self._succ[node]:
                if longest[node] + 1 > longest[child]:
                    longest[child] = longest[node] + 1
        return longest

    def height(self) -> int:
        """Length (in edges) of the longest directed path in the DAG."""
        return max(self.depths().values(), default=0)

    def transitive_reduction(self) -> "PartialOrderDAG":
        """Return the Hasse diagram: the minimal DAG with the same reachability."""
        reach = self._reachability()
        edges: list[tuple[Value, Value]] = []
        for u in self._values:
            direct = self._succ[u]
            for v in direct:
                # (u, v) is redundant if some other direct successor reaches v.
                redundant = any(v in reach[w] for w in direct if w != v)
                if not redundant:
                    edges.append((u, v))
        return PartialOrderDAG(self._values, edges)

    def transitive_closure_edges(self) -> list[tuple[Value, Value]]:
        """All strict preference pairs ``(better, worse)`` implied by the DAG."""
        reach = self._reachability()
        return [(u, v) for u in self._values for v in sorted(reach[u], key=self.index_of)]

    def restrict(self, keep: Iterable[Value]) -> "PartialOrderDAG":
        """Induced sub-DAG on ``keep``, preserving *reachability* among kept values.

        An edge ``x -> y`` is added when ``x`` is preferred over ``y`` in the
        original DAG and no kept value lies strictly between them.  The result
        is the Hasse diagram of the restricted partial order.
        """
        kept = [v for v in self._values if v in set(keep)]
        kept_set = set(kept)
        reach = self._reachability()
        edges: list[tuple[Value, Value]] = []
        for u in kept:
            worse_kept = [v for v in reach[u] if v in kept_set]
            for v in worse_kept:
                between = any(
                    (w in reach[u]) and (v in reach[w]) for w in worse_kept if w != v
                )
                if not between:
                    edges.append((u, v))
        return PartialOrderDAG(kept, edges)

    def relabel(self, mapping: Mapping[Value, Any]) -> "PartialOrderDAG":
        """Return a copy with every value replaced through ``mapping``."""
        values = [mapping[v] for v in self._values]
        edges = [(mapping[u], mapping[v]) for u, v in self.edges]
        return PartialOrderDAG(values, edges)

    def copy(self) -> "PartialOrderDAG":
        return PartialOrderDAG(self._values, self.edges)

    def _check(self, value: Value) -> None:
        if value not in self._index:
            raise UnknownValueError(value)
