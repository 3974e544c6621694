"""Tests for the main-memory manager."""

import pytest

from repro.errors import MemoryPoolError
from repro.storage.memory import MemoryPool


class TestAllocation:
    def test_allocate_and_free(self):
        pool = MemoryPool(budget=100)
        pool.allocate(40, tag="t")
        assert pool.bytes_in_use == 40
        assert pool.bytes_free == 60
        pool.free_all("t")
        assert pool.bytes_in_use == 0

    def test_budget_enforced(self):
        pool = MemoryPool(budget=100)
        pool.allocate(80)
        with pytest.raises(MemoryPoolError):
            pool.allocate(21)

    def test_exact_fit_allowed(self):
        pool = MemoryPool(budget=100)
        pool.allocate(100)
        assert pool.bytes_free == 0

    def test_unbounded_pool(self):
        pool = MemoryPool()
        pool.allocate(10**9)
        assert pool.bytes_free is None
        assert pool.can_allocate(10**12)

    def test_negative_size_rejected(self):
        with pytest.raises(MemoryPoolError):
            MemoryPool().allocate(-1)

    def test_zero_budget_rejected(self):
        with pytest.raises(MemoryPoolError):
            MemoryPool(budget=0)



class TestTaggedRelease:
    def test_free_all_by_tag(self):
        pool = MemoryPool()
        pool.allocate(10, tag="divisor")
        pool.allocate(20, tag="quotient")
        pool.allocate(30, tag="divisor")
        released = pool.free_all(tag="divisor")
        assert released == 40
        assert pool.bytes_in_use == 20
        assert dict(pool.live_tags) == {"quotient": 20}
        assert pool.free_all(tag="divisor") == 0

    def test_free_all_everything(self):
        pool = MemoryPool()
        pool.allocate(10)
        pool.allocate(20)
        assert pool.free_all() == 30
        assert pool.bytes_in_use == 0
        assert not pool.live_tags

    def test_live_tags_is_read_only(self):
        pool = MemoryPool()
        pool.allocate(10, tag="divisor")
        with pytest.raises(TypeError):
            pool.live_tags["divisor"] = 0
        assert pool.live_tags["divisor"] == 10


class TestStats:
    def test_peak_tracking(self):
        pool = MemoryPool()
        pool.allocate(100, tag="a")
        pool.allocate(50)
        pool.free_all("a")
        pool.allocate(10)
        assert pool.stats.peak_bytes == 150

    def test_by_tag_accumulates(self):
        pool = MemoryPool()
        pool.allocate(5, tag="x")
        pool.allocate(7, tag="x")
        assert pool.stats.by_tag["x"] == 12
        assert pool.stats.total_allocations == 2

    def test_can_allocate_reflects_budget(self):
        pool = MemoryPool(budget=50)
        assert pool.can_allocate(50)
        pool.allocate(1)
        assert not pool.can_allocate(50)
