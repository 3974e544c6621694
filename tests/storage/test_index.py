"""Tests for secondary indexes."""

import pytest

from repro.errors import StorageError
from repro.relalg.relation import Relation
from repro.storage.index import SecondaryIndex


@pytest.fixture
def stored_transcript(catalog, transcript):
    return catalog.store(transcript)


class TestBuildAndProbe:
    def test_build_indexes_every_record(self, stored_transcript):
        index = SecondaryIndex.build(stored_transcript, ["course_no"])
        assert len(index) == stored_transcript.record_count

    def test_probe_nonunique_key(self, stored_transcript):
        index = SecondaryIndex.build(stored_transcript, ["course_no"])
        rids = index.probe((10,))
        assert len(rids) == 3  # students 1, 3, 4 took course 10

    def test_probe_missing_key(self, stored_transcript):
        index = SecondaryIndex.build(stored_transcript, ["course_no"])
        assert index.probe((12345,)) == []
        assert not index.contains((12345,))

    def test_contains(self, stored_transcript):
        index = SecondaryIndex.build(stored_transcript, ["course_no"])
        assert index.contains((99,))
        assert not index.contains((0,))

    def test_fetch_decodes_rows(self, stored_transcript):
        index = SecondaryIndex.build(stored_transcript, ["student_id"])
        rows = sorted(index.fetch((4,)))
        assert rows == [(4, 10), (4, 11), (4, 99)]

    def test_composite_key(self, stored_transcript):
        index = SecondaryIndex.build(
            stored_transcript, ["student_id", "course_no"]
        )
        assert len(index.probe((1, 10))) == 1
        assert index.probe((1, 99)) == []

    def test_empty_key_rejected(self, stored_transcript):
        with pytest.raises(StorageError):
            SecondaryIndex(stored_transcript, [])


class TestMaintenance:
    def test_insert_and_delete(self, catalog):
        relation = Relation.of_ints(("a", "b"), [(1, 10)], name="r")
        stored = catalog.store(relation)
        index = SecondaryIndex.build(stored, ["a"])
        rid = stored.file.append(stored.codec.encode((1, 11)))
        index.insert((1, 11), rid)
        assert len(index.probe((1,))) == 2
        index.delete((1, 11), rid)
        assert len(index.probe((1,))) == 1

    def test_duplicate_rows_both_indexed(self, catalog):
        relation = Relation.of_ints(("a",), [(7,), (7,)], name="dups")
        stored = catalog.store(relation)
        index = SecondaryIndex.build(stored, ["a"])
        assert len(index.probe((7,))) == 2


class TestMetering:
    def test_probes_charge_comparisons(self, ctx, catalog):
        relation = Relation.of_ints(
            ("a", "b"), [(i, i) for i in range(500)], name="big"
        )
        stored = catalog.store(relation)
        index = SecondaryIndex.build(stored, ["a"], cpu=ctx.cpu)
        before = ctx.cpu.comparisons
        index.probe((250,))
        assert ctx.cpu.comparisons > before
