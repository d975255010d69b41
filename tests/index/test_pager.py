"""Unit tests for the simulated disk and buffer pool."""

import pytest

from repro.exceptions import IndexError_
from repro.index.pager import (
    DEFAULT_IO_COST_SECONDS,
    BufferPool,
    DiskSimulator,
    IOStats,
    fanout_for_page,
)


class TestIOStats:
    def test_totals_and_reset(self):
        stats = IOStats(reads=3, writes=2, buffer_hits=1)
        assert stats.total_ios == 5
        stats.reset()
        assert stats.total_ios == 0 and stats.buffer_hits == 0

    def test_merge(self):
        merged = IOStats(reads=1, writes=2).merged_with(IOStats(reads=3, buffer_hits=4))
        assert merged.reads == 4 and merged.writes == 2 and merged.buffer_hits == 4


class TestBufferPool:
    def test_zero_capacity_never_hits(self):
        pool = BufferPool(0)
        assert not pool.access(1)
        assert not pool.access(1)

    def test_lru_eviction(self):
        pool = BufferPool(2)
        assert not pool.access(1)
        assert not pool.access(2)
        assert pool.access(1)          # hit, 1 becomes most recent
        assert not pool.access(3)      # evicts 2
        assert not pool.access(2)      # miss again
        assert pool.access(3)

    def test_clear(self):
        pool = BufferPool(2)
        pool.access(1)
        pool.clear()
        assert not pool.access(1)

    def test_negative_capacity_rejected(self):
        with pytest.raises(IndexError_):
            BufferPool(-1)


class TestDiskSimulator:
    def test_reads_writes_and_time(self):
        disk = DiskSimulator(io_cost_seconds=0.01)
        disk.read(1)
        disk.read(2)
        disk.write(3)
        assert disk.stats.reads == 2 and disk.stats.writes == 1
        assert disk.io_time() == pytest.approx(0.03)

    def test_default_io_cost_matches_paper(self):
        assert DEFAULT_IO_COST_SECONDS == 0.005

    def test_buffer_pool_absorbs_repeated_reads(self):
        disk = DiskSimulator(buffer_pool=BufferPool(4))
        for _ in range(5):
            disk.read(7)
        assert disk.stats.reads == 1
        assert disk.stats.buffer_hits == 4

    def test_allocate_page_is_unique(self):
        disk = DiskSimulator()
        pages = {disk.allocate_page() for _ in range(10)}
        assert len(pages) == 10

    def test_write_many_equals_repeated_writes(self):
        bulk, repeated = DiskSimulator(), DiskSimulator()
        bulk.write_many(7)
        for page in range(7):
            repeated.write(page)
        assert bulk.stats.writes == repeated.stats.writes == 7
        bulk.write_many(0)
        assert bulk.stats.writes == 7
        with pytest.raises(IndexError_):
            bulk.write_many(-3)

    def test_reset(self):
        disk = DiskSimulator(buffer_pool=BufferPool(2))
        disk.read(1)
        disk.reset()
        assert disk.stats.total_ios == 0
        assert disk.stats.buffer_hits == 0


class TestFanout:
    def test_fanout_decreases_with_dimensionality(self):
        assert fanout_for_page(2) > fanout_for_page(6)

    def test_fanout_is_clamped(self):
        assert fanout_for_page(1, page_size=100_000) == 256
        assert fanout_for_page(50, page_size=128) == 4
