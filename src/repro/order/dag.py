"""Partial-order DAG (Hasse diagram) over a finite domain of values.

A partially ordered domain is described by a directed acyclic graph whose
nodes are the domain values.  An edge ``x -> y`` states that ``x`` is
*preferred over* ``y`` (smaller is better, mirroring the paper's convention
``x < y``).  A value ``x`` is preferred over ``y`` whenever a directed path
from ``x`` to ``y`` exists.

The class below is deliberately self-contained (no networkx dependency in the
core path) because reachability, transitive reduction and edge classification
are on the hot path of every algorithm in the library.  It keeps the
topological order its acyclicity check computes and, derived from it in one
reverse pass, the closure as one int bitmask per value (:attr:`reach_bits
<PartialOrderDAG.reach_bits>`); every reachability question reads those two.
"""

from __future__ import annotations

import heapq
from collections.abc import Hashable, Iterable, Iterator, Mapping
from typing import Any

from repro.exceptions import CycleError, PartialOrderError, UnknownValueError

Value = Hashable


def _bit_positions(bits: int) -> Iterator[int]:
    """The positions of the set bits of ``bits``, lowest first."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


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

    __slots__ = ("_values", "_index", "_succ", "_pred", "_order", "_reach_bits")

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
        # The topological order of the acyclicity check and the closure
        # bitmasks derived from it; both dropped by every new edge.
        self._order: tuple[Value, ...] | None = None
        self._reach_bits: tuple[int, ...] | None = None

        for better, worse in edges:
            self._link(better, worse)
        self.topological_order()

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    def add_edge(self, better: Value, worse: Value) -> None:
        """Add a preference edge ``better -> worse``.

        A new edge invalidates the cached topological order and closure.  An
        edge that would close a cycle raises :class:`CycleError` and is not
        kept, so the DAG is left as it was.
        """
        if not self._link(better, worse):
            return
        self._order = None
        self._reach_bits = None
        try:
            self.topological_order()
        except CycleError:
            self._succ[better].pop()
            self._pred[worse].pop()
            raise

    def _link(self, better: Value, worse: Value) -> bool:
        """Record the edge ``better -> worse``; False if it was already there."""
        if better not in self._index:
            raise UnknownValueError(better)
        if worse not in self._index:
            raise UnknownValueError(worse)
        if better == worse:
            raise PartialOrderError(f"self-loop on value {better!r} is not allowed")
        children = self._succ[better]
        if worse in children:
            return False
        children.append(worse)
        self._pred[worse].append(better)
        return True

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
    @property
    def reach_bits(self) -> tuple[int, ...]:
        """The reflexive transitive closure, one bitmask per value.

        Entry ``i`` belongs to the value at insertion index ``i``; its bit
        ``j`` is set iff that value is preferred over or equal to the value
        at index ``j``.  Computed once, in one reverse pass over the cached
        topological order, and reused until the next :meth:`add_edge`.
        """
        bits = self._reach_bits
        if bits is None:
            bits = self._reach_bits = self._closure(
                {value: 1 << position for position, value in enumerate(self._values)}
            )
        return bits

    def _closure(self, bit_of: Mapping[Value, int]) -> tuple[int, ...]:
        """Per value (by insertion index): the OR of ``bit_of`` over the
        values it is preferred over or equal to, in one reverse pass."""
        index = self._index
        reach = [0] * len(self._values)
        for node in reversed(self.topological_order()):
            acc = bit_of.get(node, 0)
            for child in self._succ[node]:
                acc |= reach[index[child]]
            reach[index[node]] = acc
        return tuple(reach)

    def _values_of_bits(self, bits: int) -> Iterator[Value]:
        """The values whose index bits are set in ``bits``, in index order."""
        values = self._values
        return (values[position] for position in _bit_positions(bits))

    def descendants(self, value: Value) -> frozenset[Value]:
        """All values strictly worse than ``value`` (reachable via >=1 edge)."""
        position = self.index_of(value)
        return frozenset(
            self._values_of_bits(self.reach_bits[position] & ~(1 << position))
        )

    def ancestors(self, value: Value) -> frozenset[Value]:
        """All values strictly better than ``value``."""
        position = self.index_of(value)
        return frozenset(
            other
            for other, bits in zip(self._values, self.reach_bits)
            if bits >> position & 1 and other != value
        )

    def is_preferred(self, better: Value, worse: Value) -> bool:
        """True iff ``better`` strictly precedes ``worse`` in the partial order."""
        row = self.index_of(better)
        column = self.index_of(worse)
        return row != column and self.reach_bits[row] >> column & 1 == 1

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

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #
    def topological_order(self) -> tuple[Value, ...]:
        """The topological order of the DAG, cached until the next :meth:`add_edge`.

        Kahn's algorithm taking, at each step, the ready value with the
        smallest insertion index, so the order is fixed by the DAG alone:
        every edge points forward and an antichain keeps insertion order.
        It is the ``A_TO`` order of the TSS encoding (Section III-B).

        Raises :class:`CycleError` if the graph has a cycle.
        """
        order = self._order
        if order is None:
            values = self._values
            index = self._index
            indegree = [len(self._pred[v]) for v in values]
            # Ascending positions: already a heap.
            ready = [position for position, degree in enumerate(indegree) if not degree]
            ordered: list[Value] = []
            while ready:
                node = values[heapq.heappop(ready)]
                ordered.append(node)
                for child in self._succ[node]:
                    position = index[child]
                    indegree[position] -= 1
                    if not indegree[position]:
                        heapq.heappush(ready, position)
            if len(ordered) != len(values):
                raise CycleError("preference graph contains a cycle")
            order = self._order = tuple(ordered)
        return order

    def depths(self) -> dict[Value, int]:
        """Per node: the length (in edges) of the longest path reaching it.

        Strictly increasing along every preference edge, so a value's depth
        is smaller than that of every value it is preferred over.
        """
        longest = {v: 0 for v in self._values}
        for node in self.topological_order():
            below = longest[node] + 1
            for child in self._succ[node]:
                if below > longest[child]:
                    longest[child] = below
        return longest

    def height(self) -> int:
        """Length (in edges) of the longest directed path in the DAG."""
        return max(self.depths().values(), default=0)

    def _strictly_below(self, positions: Iterable[int]) -> int:
        """Bits of the values strictly worse than some value at ``positions``."""
        reach = self.reach_bits
        below = 0
        for position in positions:
            below |= reach[position] & ~(1 << position)
        return below

    def transitive_reduction(self) -> "PartialOrderDAG":
        """Return the Hasse diagram: the minimal DAG with the same reachability."""
        index = self._index
        edges: list[tuple[Value, Value]] = []
        for u in self._values:
            direct = self._succ[u]
            # (u, v) is redundant if some direct successor strictly reaches v.
            below = self._strictly_below(index[w] for w in direct)
            edges.extend((u, v) for v in direct if not below >> index[v] & 1)
        return PartialOrderDAG(self._values, edges)

    def transitive_closure_edges(self) -> list[tuple[Value, Value]]:
        """All strict preference pairs ``(better, worse)`` implied by the DAG,
        grouped by ``better`` and ordered by insertion index."""
        return [
            (u, v)
            for position, (u, bits) in enumerate(zip(self._values, self.reach_bits))
            for v in self._values_of_bits(bits & ~(1 << position))
        ]

    def restrict(self, keep: Iterable[Value]) -> "PartialOrderDAG":
        """Induced sub-DAG on the values of ``keep`` that this DAG holds, in
        ``keep``'s order, preserving *reachability* among them.

        An edge ``x -> y`` is added when ``x`` is preferred over ``y`` in the
        original DAG and no kept value lies strictly between them: the Hasse
        diagram of the restricted order.  Its closure bitmasks hold the kept
        values only, so the work grows with ``len(self) * len(kept)`` bits.
        """
        kept = [value for value in dict.fromkeys(keep) if value in self._index]
        reach = self._closure({value: 1 << position for position, value in enumerate(kept)})
        closure = tuple(reach[self._index[value]] for value in kept)
        edges: list[tuple[Value, Value]] = []
        for position, (better, bits) in enumerate(zip(kept, closure)):
            worse = bits & ~(1 << position)
            below = 0
            for other in _bit_positions(worse):
                below |= closure[other] & ~(1 << other)
            edges.extend((better, kept[other]) for other in _bit_positions(worse & ~below))
        restricted = PartialOrderDAG(kept, edges)
        restricted._reach_bits = closure
        return restricted

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
