"""Tests for extent-based heap files."""

import pytest

from repro.errors import RecordNotFoundError, StorageError
from repro.relalg.schema import Attribute, DataType, Schema
from repro.storage.buffer import BufferPool
from repro.storage.config import StorageConfig
from repro.storage.disk import SimulatedDisk
from repro.storage.heapfile import HeapFile, RecordId
from repro.storage.stats import IoStatistics


def make_file(page_size=256, buffer_pages=4, extent_pages=2):
    config = StorageConfig(
        page_size=page_size,
        sort_run_page_size=page_size,
        buffer_size=buffer_pages * page_size,
        memory_limit=4 * buffer_pages * page_size,
        sort_buffer_size=page_size,
    )
    pool = BufferPool(config)
    disk = pool.register_device(SimulatedDisk("d", page_size, IoStatistics()))
    return HeapFile(pool, disk, name="f", extent_pages=extent_pages), pool, disk


class TestAppendGet:
    def test_append_returns_rid(self):
        file, _, _ = make_file()
        rid = file.append(b"hello")
        assert isinstance(rid, RecordId)
        assert file.get(rid) == b"hello"
        assert file.record_count == 1

    def test_records_pack_onto_pages(self):
        file, _, _ = make_file(page_size=256)
        rids = [file.append(bytes([i]) * 16) for i in range(10)]
        assert file.page_count == 1
        assert len({rid.page_no for rid in rids}) == 1

    def test_new_page_allocated_when_full(self):
        file, _, _ = make_file(page_size=64)
        for i in range(8):
            file.append(bytes([i]) * 16)
        assert file.page_count > 1

    def test_append_rows(self):
        file, _, _ = make_file()
        codec = Schema((Attribute("r", DataType.STRING, 1),)).codec()
        count = file.append_rows(((bytes([i]),) for i in range(5)), codec)
        assert count == 5
        assert file.record_count == 5


class TestScan:
    def test_scan_in_insertion_order(self):
        file, _, _ = make_file(page_size=64)
        payloads = [bytes([i]) * 8 for i in range(20)]
        for payload in payloads:
            file.append(payload)
        assert [record for _, record in file.scan()] == payloads

    def test_scan_skips_deleted(self):
        file, _, _ = make_file()
        keep = file.append(b"keep")
        kill = file.append(b"kill")
        file.delete(kill)
        assert [record for _, record in file.scan()] == [b"keep"]
        assert file.record_count == 1
        assert file.get(keep) == b"keep"

    def test_cold_scan_is_sequential(self):
        file, pool, disk = make_file(page_size=64, buffer_pages=2, extent_pages=8)
        for i in range(30):
            file.append(bytes([i]) * 16)
        pool.flush_device("d")
        pool.drop_device_pages("d")
        disk.stats.reset()
        list(file.scan())
        counters = disk.stats.counters("d")
        assert counters.reads == file.page_count
        # Extent allocation keeps the file contiguous: one seek.
        assert counters.seeks == 1


class TestDelete:
    def test_delete_unknown_page_rejected(self):
        file, _, _ = make_file()
        file.append(b"x")
        with pytest.raises(RecordNotFoundError):
            file.delete(RecordId(999, 0))

    def test_delete_rejects_a_page_of_another_file(self):
        file, pool, disk = make_file()
        file.append(b"x")
        other = HeapFile(pool, disk, name="g", extent_pages=2)
        foreign = other.append(b"y")
        with pytest.raises(RecordNotFoundError):
            file.delete(foreign)
        assert other.get(foreign) == b"y"

    def test_multi_page_delete(self):
        file, _, _ = make_file(page_size=64, buffer_pages=2)
        rids = [file.append(bytes([i]) * 16) for i in range(40)]
        assert file.page_count > 10

        class CountingList(list):
            walks = 0

            def __iter__(self):
                CountingList.walks += 1
                return super().__iter__()

        # Membership is a set lookup: deleting never walks the page list.
        file._pages = CountingList(file._pages)
        for rid in rids[::2]:
            file.delete(rid)
        assert CountingList.walks == 0
        assert file.record_count == 20
        assert [record for _, record in file.scan()] == [bytes([i]) * 16 for i in range(1, 40, 2)]

    def test_delete_then_get_rejected(self):
        file, _, _ = make_file()
        rid = file.append(b"x")
        file.delete(rid)
        with pytest.raises(RecordNotFoundError):
            file.get(rid)


class TestDestroy:
    def test_destroy_frees_pages_without_writeback(self):
        file, pool, disk = make_file()
        for i in range(5):
            file.append(bytes([i]) * 32)
        writes_before = disk.stats.counters("d").writes
        file.destroy()
        assert disk.stats.counters("d").writes == writes_before
        assert disk.page_count == 0

    def test_destroyed_file_rejects_use(self):
        file, _, _ = make_file()
        file.destroy()
        with pytest.raises(StorageError):
            file.append(b"x")
        with pytest.raises(StorageError):
            list(file.scan())

    def test_destroy_is_idempotent(self):
        file, _, _ = make_file()
        file.append(b"x")
        file.destroy()
        file.destroy()

    def test_pages_recycled_after_destroy(self):
        file, pool, disk = make_file(extent_pages=2)
        file.append(b"x" * 32)
        file.destroy()
        replacement = HeapFile(pool, disk, name="g", extent_pages=2)
        replacement.append(b"y" * 32)
        # The replacement reuses the freed extent pages (via new extents).
        assert disk.page_count <= 4


class TestInvariants:
    def test_extent_pages_must_be_positive(self):
        _, pool, disk = make_file()
        with pytest.raises(StorageError):
            HeapFile(pool, disk, extent_pages=0)

    def test_roundtrip_survives_eviction(self):
        # Buffer of 2 pages, file of many pages: early pages are evicted
        # (written back) and re-read during the scan.
        file, pool, disk = make_file(page_size=64, buffer_pages=2)
        payloads = [bytes([i % 250]) * 16 for i in range(60)]
        for payload in payloads:
            file.append(payload)
        assert [record for _, record in file.scan()] == payloads
        assert disk.stats.counters("d").writes > 0
