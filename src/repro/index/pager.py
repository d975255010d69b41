"""Simulated disk pages, IO accounting and an LRU buffer pool.

The paper reports *total time* as CPU time plus a fixed charge per IO
(5 msec in Section VI-B).  To reproduce that cost model in a pure-Python
setting, every R-tree node is treated as one disk page; reading a node during
query processing goes through a :class:`DiskSimulator`, which counts physical
reads (optionally absorbed by an LRU :class:`BufferPool`) and can convert the
counts into simulated seconds.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.exceptions import IndexError_

#: Default IO charge used by the paper (5 milliseconds per IO).
DEFAULT_IO_COST_SECONDS = 0.005

#: Default page size used to estimate node fanout (bytes).
DEFAULT_PAGE_SIZE = 4096


@dataclass(slots=True)
class IOStats:
    """Counters accumulated by a :class:`DiskSimulator`."""

    reads: int = 0
    writes: int = 0
    buffer_hits: int = 0

    @property
    def total_ios(self) -> int:
        return self.reads + self.writes

    def reset(self) -> None:
        self.reads = 0
        self.writes = 0
        self.buffer_hits = 0

    def merged_with(self, other: "IOStats") -> "IOStats":
        return IOStats(
            reads=self.reads + other.reads,
            writes=self.writes + other.writes,
            buffer_hits=self.buffer_hits + other.buffer_hits,
        )


class BufferPool:
    """A tiny LRU buffer pool over page identifiers.

    ``capacity=0`` disables buffering entirely (every access is a physical IO),
    matching the paper's "no buffers" experimental setting.
    """

    __slots__ = ("_capacity", "_pages")

    def __init__(self, capacity: int = 0) -> None:
        if capacity < 0:
            raise IndexError_("buffer pool capacity must be non-negative")
        self._capacity = capacity
        self._pages: OrderedDict[int, None] = OrderedDict()

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._pages)

    def access(self, page_id: int) -> bool:
        """Touch a page; return True on a buffer hit, False on a miss."""
        if self._capacity == 0:
            return False
        if page_id in self._pages:
            self._pages.move_to_end(page_id)
            return True
        self._pages[page_id] = None
        if len(self._pages) > self._capacity:
            self._pages.popitem(last=False)
        return False

    def clear(self) -> None:
        self._pages.clear()


@dataclass
class DiskSimulator:
    """Counts page reads/writes and converts them into simulated IO time."""

    io_cost_seconds: float = DEFAULT_IO_COST_SECONDS
    buffer_pool: BufferPool = field(default_factory=BufferPool)
    stats: IOStats = field(default_factory=IOStats)
    _next_page_id: int = 0

    def allocate_page(self) -> int:
        """Allocate a fresh page identifier (used when building index nodes)."""
        page_id = self._next_page_id
        self._next_page_id += 1
        return page_id

    def read(self, page_id: int) -> None:
        """Record a page read, going through the buffer pool."""
        if self.buffer_pool.access(page_id):
            self.stats.buffer_hits += 1
        else:
            self.stats.reads += 1

    def write(self, page_id: int) -> None:
        """Record a page write (bulk loading, index construction)."""
        self.stats.writes += 1

    def write_many(self, count: int) -> None:
        """Record ``count`` page writes in one O(1) charge.

        Bulk loading writes every node of the finished tree exactly once;
        charging them individually would be a per-node Python loop for a
        counter increment.  Same counters as ``count`` :meth:`write` calls.
        """
        if count < 0:
            raise IndexError_("cannot record a negative number of writes")
        self.stats.writes += count

    def io_time(self) -> float:
        """Simulated seconds spent on IO so far."""
        return self.stats.total_ios * self.io_cost_seconds

    def reset(self) -> None:
        self.stats.reset()
        self.buffer_pool.clear()


def fanout_for_page(dimensions: int, page_size: int = DEFAULT_PAGE_SIZE, *, entry_overhead: int = 8) -> int:
    """Estimate how many entries fit in one page for a given dimensionality.

    Each entry stores a low/high coordinate pair per dimension (8 bytes each)
    plus a pointer/payload; this mirrors how the paper sizes R-tree nodes.
    The result is clamped to a sensible range for an in-memory simulation.
    """
    entry_bytes = 2 * 8 * dimensions + entry_overhead
    fanout = page_size // entry_bytes
    return max(4, min(256, fanout))
