"""Storage and index substrate: geometry, simulated disk pages and R-trees.

* :mod:`~repro.index.geometry` — axis-aligned rectangles (MBBs), L1 ``mindist``
  to the origin (the most preferable corner of the mapped space) and point
  containment/intersection tests.
* :mod:`~repro.index.pager` — a simulated page store with IO counting and an
  LRU buffer pool, used to charge the paper's per-IO cost.
* :mod:`~repro.index.rtree` — the pointer R-tree supporting insertion
  (quadratic split), STR bulk loading, range and Boolean range queries, and an
  incremental best-first traversal used by BBS-style algorithms.  The
  reference backend, and the only one the dynamic algorithms use.
* :mod:`~repro.index.flat` — the structure-of-arrays :class:`FlatRTree`:
  the same STR layout bulk-loaded with vectorized ``np.argsort`` partitioning
  and level-at-a-time MBR reductions, traversed without per-entry Python
  objects (requires NumPy; static consumers only).
* :mod:`~repro.index.registry` — backend names: ``flat`` when NumPy imports,
  else ``pointer``, unless a caller names one explicitly.
"""

from repro.index.geometry import Rect, point_mindist
from repro.index.pager import BufferPool, DiskSimulator, IOStats
from repro.index.registry import available_indexes, resolve_index
from repro.index.rtree import BestFirstTraversal, NodeRef, RTree, RTreeEntry

__all__ = [
    "Rect",
    "point_mindist",
    "DiskSimulator",
    "BufferPool",
    "IOStats",
    "RTree",
    "RTreeEntry",
    "NodeRef",
    "BestFirstTraversal",
    "available_indexes",
    "resolve_index",
]
