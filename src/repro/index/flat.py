"""FlatRTree: a structure-of-arrays R-tree with a fully vectorized STR build.

The pointer :class:`~repro.index.rtree.RTree` allocates one ``RTreeEntry`` +
``Rect`` per point and partitions with Python-level sorts — after the
columnar data plane of the engine, the last hot path still shuttling
per-record Python objects.  The flat tree stores the *same* STR layout as
contiguous arrays instead:

* leaf entries live in one ``(n, d)`` float64 coordinate matrix (plus an
  aligned int64 payload vector), permuted into STR order with recursive
  ``np.argsort`` slab partitioning — zero per-point Python objects;
* nodes live in ``(m, d)`` float64 MBR low/high matrices plus int32
  child-range arrays (leaves reference coordinate rows, internal nodes
  reference a contiguous block of child nodes), with every level's parent
  MBRs computed by one ``np.minimum/maximum.reduceat`` reduction;
* L1 mindists to the origin are precomputed per node and per entry with the
  same left-to-right accumulation order as ``float(sum(corner))``, so the
  best-first visiting order is bitwise identical to the pointer tree's.

The slab arithmetic mirrors :func:`repro.index.rtree._str_partition` exactly
(same stable sorts, same ``ceil`` slab math), so a flat tree and a pointer
tree bulk-loaded from the same points have identical node geometry, identical
child order and therefore identical BBS traversals — the property suite in
``tests/index/test_flat_properties.py`` asserts exactly that.

:func:`run_bbs_flat` is the columnar twin of the generic BBS loop: heap items
are scalar tuples (no ``NodeRef``/``RTreeEntry`` objects), and with a
:class:`VectorDominanceWindow` the loop additionally tests *all* children of
a popped node against the dominance window in one kernel bulk call
(:meth:`~repro.kernels.base.VectorStore.mbr_block_dominated` /
:meth:`~repro.kernels.base.VectorStore.block_dominated_mask`), remembering
each child's verdict and window size.  At the child's own pop only the
*suffix* of members appended since is re-examined, so the per-item work —
and, under the reference kernel, the exact dominance-check count — matches
the pointer loop while the kernel-call count drops by the tree fanout.

The flat tree is read-only by design: inserts and deletes stay with the
pointer tree (the dynamic algorithms keep it unconditionally; see
:mod:`repro.index.registry` for backend selection).
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Iterator, Sequence

import numpy as np

from repro.exceptions import IndexError_
from repro.index.pager import DiskSimulator

#: Default maximum node fanout (mirrors the pointer tree).
DEFAULT_MAX_ENTRIES = 32

#: Heap-item kind tags of :func:`run_bbs_flat` (plain ints keep heap tuples
#: scalar-only; nodes sort before entries only via the unique tiebreaker).
_NODE, _ENTRY = 0, 1


def _row_sums(matrix: np.ndarray) -> np.ndarray:
    """Per-row L1 mindist, accumulated column-by-column.

    Left-to-right accumulation matches ``float(sum(tuple_of_floats))`` —
    the pointer tree's :meth:`Rect.mindist <repro.index.geometry.Rect.
    mindist>` — so heap priorities agree bitwise with the pointer traversal.
    """
    out = np.zeros(len(matrix), dtype=np.float64)
    for column in range(matrix.shape[1]):
        out += matrix[:, column]
    return out


def _str_index_groups(centers: np.ndarray, capacity: int) -> list[np.ndarray]:
    """Sort-Tile-Recursive grouping of row indices into groups <= capacity.

    The index-array twin of :func:`repro.index.rtree._str_partition`: same
    stable per-dimension sorts, same ``ceil`` slab arithmetic, therefore the
    same groups in the same order — recursion touches Python once per slab,
    never per point.
    """
    dimensions = centers.shape[1]

    def recurse(idx: np.ndarray, dim: int) -> list[np.ndarray]:
        if len(idx) <= capacity:
            return [idx]
        idx = idx[np.argsort(centers[idx, dim], kind="stable")]
        if dim == dimensions - 1:
            return [idx[i : i + capacity] for i in range(0, len(idx), capacity)]
        pages = math.ceil(len(idx) / capacity)
        slabs = math.ceil(pages ** (1.0 / (dimensions - dim)))
        slab_size = math.ceil(len(idx) / slabs)
        groups: list[np.ndarray] = []
        for start in range(0, len(idx), slab_size):
            groups.extend(recurse(idx[start : start + slab_size], dim + 1))
        return groups

    return recurse(np.arange(len(centers), dtype=np.intp), 0)


def _group_bounds(groups: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """``(starts, ends)`` of concatenated groups (int64 positions)."""
    sizes = np.fromiter((len(group) for group in groups), dtype=np.int64, count=len(groups))
    starts = np.zeros(len(groups), dtype=np.int64)
    np.cumsum(sizes[:-1], out=starts[1:])
    return starts, starts + sizes


class FlatRTree:
    """A read-only, array-backed R-tree over point data.

    Nodes are numbered level by level — leaves first, the root last — so
    every internal node's children occupy one contiguous id range.

    Attributes
    ----------
    points / payloads:
        Leaf entries in STR order: an ``(n, d)`` float64 coordinate matrix
        and the aligned int64 payload vector.
    node_low / node_high:
        ``(m, d)`` float64 MBR corner matrices.
    child_start / child_end:
        int32 half-open ranges: rows of ``points`` for leaves
        (``node_id < num_leaves``), child node ids for internal nodes.
    entry_mindists / node_mindists:
        Precomputed L1 mindists feeding the best-first heap.
    """

    __slots__ = (
        "dimensions",
        "max_entries",
        "disk",
        "points",
        "payloads",
        "node_low",
        "node_high",
        "child_start",
        "child_end",
        "entry_mindists",
        "node_mindists",
        "num_leaves",
        "height",
        "_page_base",
    )

    def __init__(self) -> None:
        raise IndexError_("use FlatRTree.bulk_load; the flat tree is bulk-load only")

    @classmethod
    def bulk_load_pairs(
        cls,
        dimensions: int,
        pairs,
        *,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        disk: DiskSimulator | None = None,
    ) -> "FlatRTree":
        """Build from ``(coords, payload)`` pairs — ``RTree.bulk_load``'s shape.

        Keeps NumPy-free callers (the baseline transform) off the matrix
        staging: the coordinate matrix is assembled here, inside the
        NumPy-required module.
        """
        coords_list: list[tuple[float, ...]] = []
        payload_list: list[int] = []
        for coords, payload in pairs:
            coords_list.append(coords)
            payload_list.append(payload)
        matrix = np.asarray(coords_list, dtype=np.float64).reshape(
            len(coords_list), dimensions
        )
        payloads = np.fromiter(
            payload_list, dtype=np.int64, count=len(payload_list)
        )
        return cls.bulk_load(
            dimensions, matrix, payloads, max_entries=max_entries, disk=disk
        )

    @classmethod
    def bulk_load(
        cls,
        dimensions: int,
        coords,
        payloads=None,
        *,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        disk: DiskSimulator | None = None,
    ) -> "FlatRTree":
        """Build a flat R-tree over an ``(n, dimensions)`` coordinate matrix.

        ``payloads`` defaults to ``0..n-1`` (row positions — exactly the
        record/point indices every consumer in this library indexes with).
        """
        if dimensions < 1:
            raise IndexError_("an R-tree needs at least one dimension")
        if max_entries < 4:
            raise IndexError_("max_entries must be at least 4")
        coords = np.asarray(coords, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[1] != dimensions:
            raise IndexError_(
                f"expected an (n, {dimensions}) coordinate matrix, got shape "
                f"{coords.shape}"
            )
        n = len(coords)
        if payloads is None:
            payloads = np.arange(n, dtype=np.int64)
        else:
            payloads = np.asarray(payloads, dtype=np.int64)
            if payloads.shape != (n,):
                raise IndexError_(
                    f"payloads must be a vector of length {n}, got shape "
                    f"{payloads.shape}"
                )

        tree = object.__new__(cls)
        tree.dimensions = dimensions
        tree.max_entries = max_entries
        tree.disk = disk

        if n == 0:
            tree.points = coords.reshape(0, dimensions)
            tree.payloads = payloads
            tree.node_low = np.zeros((1, dimensions), dtype=np.float64)
            tree.node_high = np.zeros((1, dimensions), dtype=np.float64)
            tree.child_start = np.zeros(1, dtype=np.int32)
            tree.child_end = np.zeros(1, dtype=np.int32)
            tree.num_leaves = 1
            tree.height = 1
            tree.entry_mindists = np.zeros(0, dtype=np.float64)
            tree.node_mindists = np.zeros(1, dtype=np.float64)
            tree._page_base = disk.allocate_pages(1) if disk is not None else 0
            return tree

        # Leaf level: STR-permute the points, then one reduceat per corner.
        groups = _str_index_groups(coords, max_entries)
        perm = np.concatenate(groups) if len(groups) > 1 else groups[0]
        points = coords[perm]
        tree.points = points
        tree.payloads = payloads[perm]
        starts, ends = _group_bounds(groups)
        level_low = np.minimum.reduceat(points, starts, axis=0)
        level_high = np.maximum.reduceat(points, starts, axis=0)
        # Per level: [low, high, child_start, child_end] with child ranges
        # local to the level below (leaves: rows of ``points``).
        levels: list[list[np.ndarray]] = [[level_low, level_high, starts, ends]]

        # Upper levels: partition the level's nodes by MBR center, permute
        # the level so siblings are contiguous, reduce MBRs level-at-a-time.
        while len(level_low) > 1:
            centers = (level_low + level_high) * 0.5
            groups = _str_index_groups(centers, max_entries)
            order = np.concatenate(groups) if len(groups) > 1 else groups[0]
            previous = levels[-1]
            previous[0] = level_low = level_low[order]
            previous[1] = level_high = level_high[order]
            previous[2] = previous[2][order]
            previous[3] = previous[3][order]
            starts, ends = _group_bounds(groups)
            level_low = np.minimum.reduceat(level_low, starts, axis=0)
            level_high = np.maximum.reduceat(level_high, starts, axis=0)
            levels.append([level_low, level_high, starts, ends])

        tree.num_leaves = len(levels[0][0])
        tree.height = len(levels)
        bases = []
        total = 0
        for level in levels:
            bases.append(total)
            total += len(level[0])
        tree.node_low = np.concatenate([level[0] for level in levels])
        tree.node_high = np.concatenate([level[1] for level in levels])
        child_start = np.empty(total, dtype=np.int32)
        child_end = np.empty(total, dtype=np.int32)
        for depth, level in enumerate(levels):
            base, count = bases[depth], len(level[0])
            offset = 0 if depth == 0 else bases[depth - 1]
            child_start[base : base + count] = level[2] + offset
            child_end[base : base + count] = level[3] + offset
        tree.child_start = child_start
        tree.child_end = child_end
        tree.entry_mindists = _row_sums(points)
        tree.node_mindists = _row_sums(tree.node_low)
        if disk is not None:
            tree._page_base = disk.allocate_pages(total)
            # Bulk loading writes every node (page) of the finished tree once.
            disk.write_many(total)
        else:
            tree._page_base = 0
        return tree

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.points)

    @property
    def root_id(self) -> int:
        return len(self.node_low) - 1

    def node_count(self) -> int:
        """Total number of nodes (simulated pages) in the tree."""
        return len(self.node_low)

    def is_leaf(self, node_id: int) -> bool:
        return node_id < self.num_leaves

    def charge_read(self, node_id: int) -> None:
        if self.disk is not None:
            self.disk.read(self._page_base + node_id)

    def all_entries(self):
        """Every data entry in leaf order (validation and tests).

        Materializes :class:`~repro.index.rtree.RTreeEntry` objects for API
        parity with the pointer tree — a per-entry cost acceptable only off
        the hot path; query code reads ``points``/``payloads`` directly.
        """
        from repro.index.geometry import Rect
        from repro.index.rtree import RTreeEntry

        return [
            RTreeEntry(Rect.from_point(row), int(payload))
            for row, payload in zip(self.points.tolist(), self.payloads.tolist())
        ]

    def drain(self) -> Iterator[tuple[float, tuple[float, ...], int]]:
        """Yield ``(mindist, point, payload)`` in best-first order, expanding
        every node (no pruning, no IO charges; used by structural tests)."""
        if not len(self):
            return
        heap: list[tuple[float, int, int, int]] = []
        counter = itertools.count()
        heap.append((float(self.node_mindists[self.root_id]), next(counter), _NODE, self.root_id))
        while heap:
            mindist, _, kind, index = heapq.heappop(heap)
            if kind == _ENTRY:
                yield mindist, tuple(self.points[index]), int(self.payloads[index])
                continue
            start, end = int(self.child_start[index]), int(self.child_end[index])
            if self.is_leaf(index):
                for row in range(start, end):
                    heapq.heappush(
                        heap, (float(self.entry_mindists[row]), next(counter), _ENTRY, row)
                    )
            else:
                for child in range(start, end):
                    heapq.heappush(
                        heap, (float(self.node_mindists[child]), next(counter), _NODE, child)
                    )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FlatRTree(n={len(self)}, nodes={self.node_count()}, "
            f"height={self.height}, d={self.dimensions})"
        )


class VectorDominanceWindow:
    """Bulk + suffix dominance tests over one kernel :class:`VectorStore`.

    The columnar BBS loop's view of a growing skyline window whose dominance
    relation is plain vector dominance (BBS, BBS+, SDC).  ``exclude_equal``
    configures the MBB corner test (classical BBS must not prune an MBB whose
    best corner *equals* a resident; the m-dominance baselines prune it).

    The suffix methods rely on the store being append-only for the duration
    of the traversal (true for every BBS-style loop: skyline members are
    final and never evicted mid-run).
    """

    __slots__ = ("store", "exclude_equal")

    def __init__(self, store, *, exclude_equal: bool) -> None:
        self.store = store
        self.exclude_equal = exclude_equal

    def size(self) -> int:
        return len(self.store)

    def block_rects(self, lows, highs, counter) -> list[bool]:
        """Per MBB: weakly dominated by any current member?

        Vector dominance only consults the best (low) corner; ``highs`` is
        part of the shared window protocol for relations — t-dominance —
        whose MBB verdict needs the full extent.
        """
        return self.store.mbr_block_dominated(
            lows, counter=counter, exclude_equal=self.exclude_equal
        )

    def block_points(self, rows, counter) -> list[bool]:
        """Per point row: strictly dominated by any current member?"""
        return self.store.block_dominated_mask(rows, counter=counter)

    def rect_suffix(self, low, high, start: int, counter) -> bool:
        return self.store.any_weakly_dominates(
            low, counter, exclude_equal=self.exclude_equal, start=start
        )

    def point_suffix(self, point, start: int, counter) -> bool:
        return self.store.any_dominates(point, counter, start=start)


def run_bbs_flat(
    tree: FlatRTree,
    *,
    dominated_point,
    dominated_rect,
    on_result,
    stats,
    clock=None,
    window=None,
) -> list[int]:
    """The columnar BBS loop over a :class:`FlatRTree`.

    Semantics match the pointer loop in :func:`repro.skyline.bbs.run_bbs`
    exactly: items are popped in (mindist, insertion) order and tested
    against the dominance window *at pop time*, so results, discovery order,
    node expansions and IO charges are identical to the pointer traversal of
    the same tree.

    Without a ``window`` the per-item predicates are called exactly like the
    pointer loop.  With one (:class:`VectorDominanceWindow` for vector
    dominance, :class:`~repro.core.tdominance.TDominanceWindow` for the
    paper's exact relation), every
    expansion additionally tests all children in a single kernel bulk call
    and remembers each child's verdict plus the window size it was computed
    at; the child's own pop then consults only the members appended since
    (``start=prefix``).  Verdicts compose exactly — dominance by a member is
    permanent — and so do the charges: ``prefix + suffix`` comparisons are
    the very comparisons the pointer loop performs at pop time, which keeps
    dominance-check counts identical under the early-exiting reference
    kernel and never higher under the batched one.
    """
    results: list[int] = []
    if not len(tree):
        return results
    points = tree.points
    payloads = tree.payloads
    node_low = tree.node_low
    node_high = tree.node_high
    child_start = tree.child_start
    child_end = tree.child_end
    entry_mindists = tree.entry_mindists
    node_mindists = tree.node_mindists
    counter = itertools.count()
    push = heapq.heappush
    # Heap item: (mindist, tiebreak, kind, index, prefix, prefix_dominated).
    root = tree.root_id
    heap: list[tuple[float, int, int, int, int, bool]] = [
        (float(node_mindists[root]), next(counter), _NODE, root, 0, False)
    ]
    while heap:
        _, _, kind, index, prefix, prefix_dominated = heapq.heappop(heap)
        if kind == _ENTRY:
            stats.points_examined += 1
            point = points[index]
            payload = payloads[index]
            if window is not None:
                if prefix_dominated or window.point_suffix(point, prefix, stats):
                    continue
            elif dominated_point(point, payload):
                continue
            on_result(point, payload)
            results.append(payload)
            if clock is not None:
                clock.record_result()
            continue
        if window is not None:
            if prefix_dominated or window.rect_suffix(
                node_low[index], node_high[index], prefix, stats
            ):
                continue
        elif dominated_rect(node_low[index], node_high[index]):
            continue
        stats.nodes_expanded += 1
        tree.charge_read(index)
        start, end = int(child_start[index]), int(child_end[index])
        if index < tree.num_leaves:
            if window is not None:
                verdicts = window.block_points(points[start:end], stats)
                base = window.size()
                for row in range(start, end):
                    push(
                        heap,
                        (
                            float(entry_mindists[row]),
                            next(counter),
                            _ENTRY,
                            row,
                            base,
                            verdicts[row - start],
                        ),
                    )
            else:
                for row in range(start, end):
                    push(
                        heap,
                        (float(entry_mindists[row]), next(counter), _ENTRY, row, 0, False),
                    )
        else:
            if window is not None:
                verdicts = window.block_rects(
                    node_low[start:end], node_high[start:end], stats
                )
                base = window.size()
                for child in range(start, end):
                    push(
                        heap,
                        (
                            float(node_mindists[child]),
                            next(counter),
                            _NODE,
                            child,
                            base,
                            verdicts[child - start],
                        ),
                    )
            else:
                for child in range(start, end):
                    push(
                        heap,
                        (float(node_mindists[child]), next(counter), _NODE, child, 0, False),
                    )
    return results


class GrowableRowMatrix:
    """A row-appendable 2-D float64 array with amortized-doubling storage.

    The storage substrate of the array-backed virtual-point index: rows are
    appended as skyline points arrive, queries read the compact ``view``.
    """

    __slots__ = ("_buffer", "_size")

    _INITIAL_CAPACITY = 16

    def __init__(self, columns: int) -> None:
        self._buffer = np.empty((self._INITIAL_CAPACITY, columns), dtype=np.float64)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def view(self) -> np.ndarray:
        return self._buffer[: self._size]

    def append(self, row: Sequence[float]) -> None:
        if self._size == len(self._buffer):
            grown = np.empty(
                (2 * len(self._buffer), self._buffer.shape[1]), dtype=np.float64
            )
            grown[: self._size] = self._buffer
            self._buffer = grown
        self._buffer[self._size] = row
        self._size += 1
