"""Tests for hash-based duplicate elimination."""

import pytest

from repro.errors import HashTableOverflowError
from repro.executor.aggregate import HashGroupCount
from repro.executor.distinct import HashDistinct
from repro.executor.hash_table import ChainedHashTable
from repro.executor.iterator import ExecContext, run_to_relation
from repro.executor.scan import RelationSource
from repro.relalg.relation import Relation


def source(ctx, rows):
    return RelationSource(ctx, Relation.of_ints(("a", "b"), rows))


class TestHashDistinct:
    def test_removes_duplicates_keeps_first_order(self, ctx):
        rows = [(1, 1), (2, 2), (1, 1), (3, 3), (2, 2)]
        result = run_to_relation(HashDistinct(source(ctx, rows)))
        assert result.rows == [(1, 1), (2, 2), (3, 3)]

    def test_no_duplicates_passthrough(self, ctx):
        rows = [(1, 1), (2, 2)]
        assert run_to_relation(HashDistinct(source(ctx, rows))).rows == rows

    def test_empty_input(self, ctx):
        assert run_to_relation(HashDistinct(source(ctx, []))).rows == []

    def test_memory_grows_with_distinct_count(self, ctx):
        """The paper's warning: hash dup-elim holds the whole distinct
        input in memory -- unlike hash aggregation."""
        rows = [(i, i) for i in range(1000)]
        run_to_relation(HashDistinct(source(ctx, rows)))
        per_entry = ctx.memory.stats.peak_bytes / 1000
        assert per_entry >= 16  # at least the record size per entry

    def test_overflow_on_large_distinct_input(self):
        ctx = ExecContext(memory_budget=4 * 1024)
        rows = [(i, i) for i in range(1000)]
        with pytest.raises(HashTableOverflowError):
            run_to_relation(HashDistinct(source(ctx, rows)))

    def test_duplicate_heavy_input_fits_small_budget(self):
        # Many tuples, few distinct: memory tracks distinct count.
        ctx = ExecContext(memory_budget=8 * 1024)
        rows = [(i % 10, 0) for i in range(5000)]
        result = run_to_relation(HashDistinct(source(ctx, rows)))
        assert len(result) == 10

    def test_hands_out_a_batch_of_first_occurrences(self, ctx):
        rows = [(i % 30, 0) for i in range(200)]
        distinct = HashDistinct(source(ctx, rows))
        distinct.open()
        try:
            assert distinct.next_batch() == [(i, 0) for i in range(30)]
            assert distinct.next_batch() == []
        finally:
            distinct.close()

    def test_feeds_group_count_whole_batches(self, ctx, monkeypatch):
        """A per-row HashDistinct would feed HashGroupCount one-row
        batches, one kernel call per row."""
        sizes = []
        original = ChainedHashTable.find_or_insert_many

        def recorded(self, keys, make_payload):
            sizes.append((self.base_tag, len(keys)))
            return original(self, keys, make_payload)

        monkeypatch.setattr(ChainedHashTable, "find_or_insert_many", recorded)
        rows = [(i % 30, i % 3) for i in range(300)]
        plan = HashGroupCount(HashDistinct(source(ctx, rows)), ["a"], expected_groups=30)
        assert sorted(run_to_relation(plan).rows) == [(a, 1) for a in range(30)]
        assert sizes == [("hash-distinct", 300), ("hash-aggregate", 30)]

    def test_memory_released_on_close(self, ctx):
        run_to_relation(HashDistinct(source(ctx, [(1, 1)])))
        assert ctx.memory.bytes_in_use == 0
