"""A from-scratch R-tree with STR bulk loading and best-first traversal.

The R-tree is the storage substrate of every index-based algorithm in the
paper: the data R-tree(s) that BBS / sTSS / SDC+ / dTSS traverse, and the
main-memory R-tree of virtual skyline points used for fast t-dominance checks
(Section IV-B).  Features:

* **Bulk loading** with the Sort-Tile-Recursive (STR) algorithm, which is how
  the experimental datasets are indexed (the paper bulk-loads per-stratum and
  per-group R-trees as well).
* **Dynamic insertion** with the classic quadratic-split heuristic (used for
  the incrementally grown main-memory R-tree of skyline points).
* **Range queries** and **Boolean range queries** (the latter stop at the
  first hit — exactly the optimization of Section IV-B).
* **Best-first traversal** ordered by L1 ``mindist`` to the origin, exposed as
  an incremental object so BBS-style algorithms can prune subtrees before
  they are expanded.
* Optional **IO accounting**: every node read is charged to a
  :class:`~repro.index.pager.DiskSimulator`, enabling the paper's
  "CPU + 5 ms x IOs" total-time metric.

Minimum bounding rectangles are cached on every node and maintained
incrementally, so insertions and queries never recompute bounds from scratch.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Callable, Hashable, Iterable, Sequence
from dataclasses import dataclass

from repro.exceptions import IndexError_
from repro.index.geometry import Rect, SweepKey, sweep_key
from repro.index.pager import DiskSimulator

Payload = Hashable

#: Default maximum node fanout when none is supplied.
DEFAULT_MAX_ENTRIES = 32


@dataclass(frozen=True, slots=True)
class RTreeEntry:
    """A data entry: the indexed rectangle (usually a point) plus its payload."""

    rect: Rect
    payload: Payload


class _Node:
    """Internal R-tree node; one simulated disk page with a cached MBR."""

    __slots__ = ("leaf", "entries", "children", "page_id", "mbr")

    def __init__(self, leaf: bool, page_id: int) -> None:
        self.leaf = leaf
        self.entries: list[RTreeEntry] = []
        self.children: list[_Node] = []
        self.page_id = page_id
        self.mbr: Rect | None = None

    def size(self) -> int:
        return len(self.entries) if self.leaf else len(self.children)

    def recompute_mbr(self) -> None:
        """Recompute the cached MBR from the node's immediate contents."""
        if self.leaf:
            self.mbr = Rect.bounding(e.rect for e in self.entries) if self.entries else None
        else:
            rects = [c.mbr for c in self.children if c.mbr is not None]
            self.mbr = Rect.bounding(rects) if rects else None

    def extend_mbr(self, rect: Rect) -> None:
        self.mbr = rect if self.mbr is None else self.mbr.union(rect)


@dataclass(frozen=True, slots=True)
class NodeRef:
    """Handle to a not-yet-expanded node, as surfaced by the best-first traversal."""

    rect: Rect
    node: _Node


class RTree:
    """An R-tree over rectangles (or points) with hashable payloads."""

    def __init__(
        self,
        dimensions: int,
        *,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        min_entries: int | None = None,
        disk: DiskSimulator | None = None,
    ) -> None:
        if dimensions < 1:
            raise IndexError_("an R-tree needs at least one dimension")
        if max_entries < 4:
            raise IndexError_("max_entries must be at least 4")
        self.dimensions = dimensions
        self.max_entries = max_entries
        self.min_entries = min_entries if min_entries is not None else max(2, max_entries // 3)
        if not 2 <= self.min_entries <= self.max_entries // 2:
            raise IndexError_("min_entries must be in [2, max_entries / 2]")
        self.disk = disk
        self._page_counter = itertools.count()
        self._root = self._new_node(leaf=True)
        self._size = 0
        self._height = 1

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def _new_node(self, leaf: bool) -> _Node:
        if self.disk is not None:
            page_id = self.disk.allocate_page()
        else:
            page_id = next(self._page_counter)
        return _Node(leaf=leaf, page_id=page_id)

    @classmethod
    def bulk_load(
        cls,
        dimensions: int,
        entries: Iterable[tuple[Sequence[float], Payload]],
        *,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        disk: DiskSimulator | None = None,
    ) -> "RTree":
        """Build an R-tree over point data with the STR algorithm."""
        tree = cls(dimensions, max_entries=max_entries, disk=disk)
        data = [RTreeEntry(Rect.from_point(point), payload) for point, payload in entries]
        tree._size = len(data)
        if not data:
            return tree
        leaves: list[_Node] = []
        for group in _str_partition(data, dimensions, max_entries, key=lambda e: e.rect.center()):
            node = tree._new_node(leaf=True)
            node.entries = group
            node.recompute_mbr()
            leaves.append(node)
        tree._root, tree._height = tree._build_upper_levels(leaves)
        if disk is not None:
            # Bulk loading writes every node (page) of the finished tree once.
            disk.write_many(tree.node_count())
        return tree

    def _build_upper_levels(self, nodes: list[_Node]) -> tuple[_Node, int]:
        height = 1
        level = nodes
        while len(level) > 1:
            groups = _str_partition(
                level, self.dimensions, self.max_entries, key=lambda n: n.mbr.center()
            )
            parents: list[_Node] = []
            for group in groups:
                parent = self._new_node(leaf=False)
                parent.children = group
                parent.recompute_mbr()
                parents.append(parent)
            level = parents
            height += 1
        return level[0], height

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        return self._height

    @property
    def root(self) -> NodeRef:
        """A handle to the root node (not yet charged as an IO)."""
        rect = self._root.mbr or Rect.from_point((0.0,) * self.dimensions)
        return NodeRef(rect=rect, node=self._root)

    def node_count(self) -> int:
        """Total number of nodes (simulated pages) in the tree."""
        count = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            count += 1
            if not node.leaf:
                stack.extend(node.children)
        return count

    def all_entries(self) -> list[RTreeEntry]:
        """Every data entry (no IO charged; used for validation and tests)."""
        result: list[RTreeEntry] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.leaf:
                result.extend(node.entries)
            else:
                stack.extend(node.children)
        return result

    # ------------------------------------------------------------------ #
    # Insertion
    # ------------------------------------------------------------------ #
    def insert(self, point: Sequence[float], payload: Payload) -> None:
        """Insert a point entry (quadratic-split R-tree insertion)."""
        self.insert_rect(Rect.from_point(point), payload)

    def insert_rect(self, rect: Rect, payload: Payload) -> None:
        if rect.dimensions != self.dimensions:
            raise IndexError_(
                f"entry has {rect.dimensions} dimensions, the tree expects {self.dimensions}"
            )
        entry = RTreeEntry(rect, payload)
        leaf, path = self._choose_leaf(rect)
        leaf.entries.append(entry)
        leaf.extend_mbr(rect)
        for ancestor in path:
            ancestor.extend_mbr(rect)
        self._size += 1
        if self.disk is not None:
            self.disk.write(leaf.page_id)
        self._handle_overflow(leaf, path)

    def _choose_leaf(self, rect: Rect) -> tuple[_Node, list[_Node]]:
        node = self._root
        path: list[_Node] = []
        while not node.leaf:
            path.append(node)
            node = min(
                node.children,
                key=lambda child: (child.mbr.enlargement(rect), child.mbr.area()),
            )
        return node, path

    def _handle_overflow(self, node: _Node, path: list[_Node]) -> None:
        while node.size() > self.max_entries:
            sibling = self._split(node)
            if path:
                parent = path.pop()
                parent.children.append(sibling)
                parent.extend_mbr(sibling.mbr)  # type: ignore[arg-type]
                if self.disk is not None:
                    self.disk.write(parent.page_id)
                node = parent
            else:
                new_root = self._new_node(leaf=False)
                new_root.children = [node, sibling]
                new_root.recompute_mbr()
                self._root = new_root
                self._height += 1
                return

    def _split(self, node: _Node) -> _Node:
        """Quadratic split: distribute the node's contents across node + a new sibling."""
        sibling = self._new_node(leaf=node.leaf)
        if node.leaf:
            items: list = node.entries
            rect_of: Callable[[object], Rect] = lambda item: item.rect  # type: ignore[attr-defined]
        else:
            items = node.children
            rect_of = lambda item: item.mbr  # type: ignore[attr-defined]

        seed_a, seed_b = _quadratic_pick_seeds(items, rect_of)
        group_a = [items[seed_a]]
        group_b = [items[seed_b]]
        rect_a = rect_of(items[seed_a])
        rect_b = rect_of(items[seed_b])
        remaining = [item for i, item in enumerate(items) if i not in (seed_a, seed_b)]

        while remaining:
            # If one group is so small that it needs every remaining item to
            # reach min_entries, assign them all and stop.
            if len(group_a) + len(remaining) <= self.min_entries:
                group_a.extend(remaining)
                remaining = []
                break
            if len(group_b) + len(remaining) <= self.min_entries:
                group_b.extend(remaining)
                remaining = []
                break
            item = _quadratic_pick_next(remaining, rect_a, rect_b, rect_of)
            remaining.remove(item)
            rect = rect_of(item)
            enlargement_a = rect_a.enlargement(rect)
            enlargement_b = rect_b.enlargement(rect)
            if (enlargement_a, rect_a.area(), len(group_a)) <= (
                enlargement_b,
                rect_b.area(),
                len(group_b),
            ):
                group_a.append(item)
                rect_a = rect_a.union(rect)
            else:
                group_b.append(item)
                rect_b = rect_b.union(rect)

        if node.leaf:
            node.entries = group_a
            sibling.entries = group_b
        else:
            node.children = group_a
            sibling.children = group_b
        node.recompute_mbr()
        sibling.recompute_mbr()
        if self.disk is not None:
            self.disk.write(node.page_id)
            self.disk.write(sibling.page_id)
        return sibling

    # ------------------------------------------------------------------ #
    # Deletion
    # ------------------------------------------------------------------ #
    def delete(self, point: Sequence[float], payload: Payload) -> bool:
        """Delete one entry matching ``(point, payload)``; returns True if found."""
        rect = Rect.from_point(point)
        found = self._delete_recursive(self._root, rect, payload)
        if found:
            self._size -= 1
            while not self._root.leaf and len(self._root.children) == 1:
                self._root = self._root.children[0]
                self._height -= 1
        return found

    def _delete_recursive(self, node: _Node, rect: Rect, payload: Payload) -> bool:
        if node.leaf:
            for i, entry in enumerate(node.entries):
                if entry.payload == payload and entry.rect == rect:
                    del node.entries[i]
                    node.recompute_mbr()
                    return True
            return False
        for child in node.children:
            if (
                child.mbr is not None
                and child.mbr.contains_rect(rect)
                and self._delete_recursive(child, rect, payload)
            ):
                if child.size() == 0:
                    node.children.remove(child)
                node.recompute_mbr()
                return True
        return False

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def range_query(self, rect: Rect, *, charge_io: bool = False) -> list[RTreeEntry]:
        """All data entries whose rectangle intersects ``rect``."""
        self._check_query_rect(rect)
        result: list[RTreeEntry] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if charge_io:
                self._charge_read(node)
            if node.leaf:
                result.extend(e for e in node.entries if rect.intersects(e.rect))
            else:
                stack.extend(
                    c for c in node.children if c.mbr is not None and rect.intersects(c.mbr)
                )
        return result

    def boolean_range_query(self, rect: Rect, *, charge_io: bool = False) -> bool:
        """True iff at least one data entry intersects ``rect`` (stops at first hit)."""
        self._check_query_rect(rect)
        stack = [self._root]
        while stack:
            node = stack.pop()
            if charge_io:
                self._charge_read(node)
            if node.leaf:
                if any(rect.intersects(e.rect) for e in node.entries):
                    return True
            else:
                stack.extend(
                    c for c in node.children if c.mbr is not None and rect.intersects(c.mbr)
                )
        return False

    def count_in_range(self, rect: Rect) -> int:
        return len(self.range_query(rect))

    def best_first(self) -> "BestFirstTraversal":
        """Start an incremental best-first (mindist-ordered) traversal."""
        return BestFirstTraversal(self)

    # ------------------------------------------------------------------ #
    # Internals shared with the traversal
    # ------------------------------------------------------------------ #
    def _charge_read(self, node: _Node) -> None:
        if self.disk is not None:
            self.disk.read(node.page_id)

    def _check_query_rect(self, rect: Rect) -> None:
        if rect.dimensions != self.dimensions:
            raise IndexError_(
                f"query has {rect.dimensions} dimensions, the tree expects {self.dimensions}"
            )


class BestFirstTraversal:
    """Incremental best-first traversal of an R-tree ordered by L1 mindist.

    The caller repeatedly calls :meth:`pop` to obtain the pending entry with
    the smallest mindist.  Node entries (:class:`NodeRef`) may either be
    expanded with :meth:`expand` — which charges one IO and enqueues the
    node's children — or simply dropped (pruned).  Data entries are returned
    as :class:`RTreeEntry`.  This is exactly the control flow BBS-style
    algorithms need.

    A point only follows its dominators and their subtrees: entries leave
    in ascending :func:`~repro.index.geometry.sweep_key` of their low
    corner (mindist, then the corner lexicographically), ties in insertion
    order.
    """

    def __init__(self, tree: RTree) -> None:
        self._tree = tree
        self._heap: list[tuple[SweepKey, int, object]] = []
        self._counter = itertools.count()
        if len(tree) > 0:
            root = tree.root
            self._push(root.rect, root)

    def _push(self, rect: Rect, item: object) -> None:
        heapq.heappush(self._heap, (sweep_key(rect.low), next(self._counter), item))

    def __bool__(self) -> bool:
        return bool(self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def pop(self) -> tuple[float, NodeRef | RTreeEntry]:
        """Remove and return the pending entry with the smallest mindist."""
        if not self._heap:
            raise IndexError_("best-first traversal is exhausted")
        (mindist, _), _, item = heapq.heappop(self._heap)
        return mindist, item  # type: ignore[return-value]

    def expand(self, node_ref: NodeRef) -> None:
        """Visit a node: charge one IO and enqueue its children/entries."""
        node = node_ref.node
        self._tree._charge_read(node)
        if node.leaf:
            for entry in node.entries:
                self._push(entry.rect, entry)
        else:
            for child in node.children:
                if child.mbr is not None:
                    self._push(child.mbr, NodeRef(rect=child.mbr, node=child))


# --------------------------------------------------------------------- #
# STR bulk-loading and quadratic-split helpers
# --------------------------------------------------------------------- #
def _str_partition(items: list, dimensions: int, capacity: int, *, key: Callable) -> list[list]:
    """Sort-Tile-Recursive grouping of ``items`` into groups of size <= capacity."""

    def recurse(chunk: list, dim: int) -> list[list]:
        if len(chunk) <= capacity:
            return [chunk]
        chunk = sorted(chunk, key=lambda item: key(item)[dim])
        if dim == dimensions - 1:
            return [chunk[i : i + capacity] for i in range(0, len(chunk), capacity)]
        pages = math.ceil(len(chunk) / capacity)
        slabs = math.ceil(pages ** (1.0 / (dimensions - dim)))
        slab_size = math.ceil(len(chunk) / slabs)
        groups: list[list] = []
        for start in range(0, len(chunk), slab_size):
            groups.extend(recurse(chunk[start : start + slab_size], dim + 1))
        return groups

    return recurse(list(items), 0)


def _quadratic_pick_seeds(items: list, rect_of: Callable) -> tuple[int, int]:
    """Pick the pair of items wasting the most area when grouped together."""
    best_pair = (0, 1)
    worst_waste = float("-inf")
    for i in range(len(items)):
        rect_i = rect_of(items[i])
        for j in range(i + 1, len(items)):
            rect_j = rect_of(items[j])
            waste = rect_i.union(rect_j).area() - rect_i.area() - rect_j.area()
            if waste > worst_waste:
                worst_waste = waste
                best_pair = (i, j)
    return best_pair


def _quadratic_pick_next(remaining: list, rect_a: Rect, rect_b: Rect, rect_of: Callable):
    """Pick the item with the strongest preference for one of the two groups."""
    best_item = remaining[0]
    best_difference = -1.0
    for item in remaining:
        rect = rect_of(item)
        difference = abs(rect_a.enlargement(rect) - rect_b.enlargement(rect))
        if difference > best_difference:
            best_difference = difference
            best_item = item
    return best_item
