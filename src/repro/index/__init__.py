"""Storage and index substrate: geometry, simulated disk pages and R-trees.

* :mod:`~repro.index.geometry` — axis-aligned rectangles (MBBs), L1 ``mindist``
  to the origin (the most preferable corner of the mapped space), the
  ``sweep_key`` every ordered scan follows, and point containment/intersection
  tests.
* :mod:`~repro.index.pager` — a simulated page store with IO counting and an
  LRU buffer pool, used to charge the paper's per-IO cost.
* :mod:`~repro.index.rtree` — the pointer R-tree supporting insertion
  (quadratic split), STR bulk loading, range and Boolean range queries, and an
  incremental best-first traversal used by BBS-style algorithms.  It is the
  one spatial index: the bulk-loaded data trees of every algorithm and the
  incrementally grown virtual-point index are all instances of
  :class:`RTree`.
"""

from repro.index.geometry import Rect, sweep_key
from repro.index.pager import BufferPool, DiskSimulator, IOStats
from repro.index.rtree import BestFirstTraversal, NodeRef, RTree, RTreeEntry

__all__ = [
    "Rect",
    "sweep_key",
    "DiskSimulator",
    "BufferPool",
    "IOStats",
    "RTree",
    "RTreeEntry",
    "NodeRef",
    "BestFirstTraversal",
]
