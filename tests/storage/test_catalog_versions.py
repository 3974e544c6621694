"""Catalog write-counters: the cache-invalidation contract.

The serve layer's correctness proof obligation is
``same versions => same stored bytes``.  These tests pin the half of
it that lives in the catalog: every catalog-mediated write bumps the
counter -- including failed/partial and no-op writes, where a spurious
bump costs one cache miss but a missed bump would serve stale rows.
"""

import pytest

from repro.errors import StorageError


@pytest.fixture
def stored(catalog, transcript):
    return catalog.store(transcript, "transcript")


class TestVersionCounter:
    def test_store_counts_the_bulk_load(self, catalog, stored):
        assert catalog.version("transcript") == 1

    def test_insert_bumps(self, catalog, stored):
        new_version = catalog.insert_rows("transcript", [(9, 10)])
        assert new_version == 2
        assert catalog.version("transcript") == 2

    def test_delete_bumps(self, catalog, stored):
        deleted, version = catalog.delete_rows(
            "transcript", keep=lambda row: row[1] != 99
        )
        assert deleted == 2
        assert version == 2

    def test_noop_delete_still_bumps(self, catalog, stored):
        # The *write happened*; the invariant must not depend on
        # predicate reasoning about whether it changed anything.
        deleted, version = catalog.delete_rows(
            "transcript", keep=lambda row: True
        )
        assert deleted == 0
        assert version == 2

    def test_empty_insert_still_bumps(self, catalog, stored):
        assert catalog.insert_rows("transcript", []) == 2

    def test_failed_insert_still_bumps(self, catalog, stored, monkeypatch):
        # A device fault mid-append may have applied a prefix of the
        # rows: the stored bytes may differ, so caches must die.
        def broken(rows, codec):
            raise StorageError("device fault mid-append")

        monkeypatch.setattr(stored.file, "append_rows", broken)
        with pytest.raises(StorageError):
            catalog.insert_rows("transcript", [(9, 10)])
        assert catalog.version("transcript") == 2


class TestVersionsOf:
    def test_sorted_and_deduplicated(self, catalog, stored, courses):
        catalog.store(courses, "courses")
        snapshot = catalog.versions_of(["transcript", "courses", "transcript"])
        assert snapshot == (("courses", 1), ("transcript", 1))

    def test_snapshot_reflects_later_writes(self, catalog, stored, courses):
        catalog.store(courses, "courses")
        before = catalog.versions_of(["transcript", "courses"])
        catalog.insert_rows("transcript", [(9, 10)])
        after = catalog.versions_of(["transcript", "courses"])
        assert before != after
        assert dict(after)["courses"] == dict(before)["courses"]
