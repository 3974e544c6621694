"""Tests for the aggregation operators."""

from repro.executor.aggregate import HashGroupCount, SortedGroupCount
from repro.executor.hash_table import ChainedHashTable
from repro.executor.iterator import run_to_relation
from repro.executor.scan import RelationSource
from repro.relalg.relation import Relation


def source(ctx, names, rows):
    return RelationSource(ctx, Relation.of_ints(names, rows))


class TestSortedGroupCount:
    def test_counts_consecutive_groups(self, ctx):
        rows = [(1, 0), (1, 1), (2, 0), (3, 0), (3, 1), (3, 2)]
        plan = SortedGroupCount(source(ctx, ("g", "x"), rows), ["g"])
        assert run_to_relation(plan).rows == [(1, 2), (2, 1), (3, 3)]

    def test_single_group(self, ctx):
        plan = SortedGroupCount(source(ctx, ("g",), [(7,), (7,)]), ["g"])
        assert run_to_relation(plan).rows == [(7, 2)]

    def test_empty_input(self, ctx):
        plan = SortedGroupCount(source(ctx, ("g",), []), ["g"])
        assert run_to_relation(plan).rows == []

    def test_unsorted_input_recounts_groups(self, ctx):
        # Documents the sortedness requirement: an unsorted input
        # produces one row per run of equal keys, not per key.
        rows = [(1, 0), (2, 0), (1, 0)]
        plan = SortedGroupCount(source(ctx, ("g", "x"), rows), ["g"])
        assert run_to_relation(plan).rows == [(1, 1), (2, 1), (1, 1)]

    def test_charges_one_comparison_per_row_after_first(self, ctx):
        rows = [(1, 0)] * 10
        plan = SortedGroupCount(source(ctx, ("g", "x"), rows), ["g"])
        run_to_relation(plan)
        assert ctx.cpu.comparisons == 9


class TestHashGroupCount:
    def test_counts_groups_any_order(self, ctx):
        rows = [(1, 0), (2, 0), (1, 1), (3, 0), (1, 2)]
        plan = HashGroupCount(source(ctx, ("g", "x"), rows), ["g"])
        result = run_to_relation(plan)
        assert sorted(result.rows) == [(1, 3), (2, 1), (3, 1)]

    def test_table_holds_one_entry_per_group(self, ctx):
        # 10,000 input tuples but only 5 groups: memory stays tiny
        # ("it is not necessary that the aggregation input fit into
        # main memory", Section 2.2.2).
        rows = [(i % 5, i) for i in range(10_000)]
        plan = HashGroupCount(
            source(ctx, ("g", "x"), rows), ["g"], expected_groups=5
        )
        result = run_to_relation(plan)
        assert sorted(result.rows) == [(g, 2000) for g in range(5)]
        assert ctx.memory.stats.peak_bytes < 5 * 1024

    def test_expected_groups_zero_sizes_from_input(self, ctx):
        rows = [(i, 0) for i in range(100)]
        plan = HashGroupCount(source(ctx, ("g", "x"), rows), ["g"])
        assert len(run_to_relation(plan)) == 100

    def test_drained_input_inserts_each_group_once(self, ctx, monkeypatch):
        """Without a sizing hint the input is one batch.  Its new keys
        are inserted once each, in one batch insert: no row takes the
        per-key path, and the pool books one chain element per group
        (plus the bucket array)."""
        calls = {"find": 0, "find_or_insert": 0}
        for name in calls:
            original = getattr(ChainedHashTable, name)

            def counted(self, *args, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(ChainedHashTable, name, counted)
        rows = [(i % 40, i) for i in range(400)]
        result = run_to_relation(HashGroupCount(source(ctx, ("g", "x"), rows), ["g"]))
        assert sorted(result.rows) == [(g, 10) for g in range(40)]
        assert calls == {"find": 0, "find_or_insert": 0}
        assert ctx.cpu.hashes == 400
        assert ctx.memory.stats.total_allocations == 40 + 1

    def test_memory_freed_after_close(self, ctx):
        plan = HashGroupCount(source(ctx, ("g",), [(1,)]), ["g"])
        run_to_relation(plan)
        assert ctx.memory.bytes_in_use == 0

    def test_empty_input(self, ctx):
        plan = HashGroupCount(source(ctx, ("g",), []), ["g"])
        assert run_to_relation(plan).rows == []

    def test_agrees_with_sorted_group_count(self, ctx):
        import random

        rng = random.Random(9)
        rows = [(rng.randrange(10), i) for i in range(500)]
        hashed = run_to_relation(
            HashGroupCount(source(ctx, ("g", "x"), rows), ["g"])
        )
        sorted_counts = run_to_relation(
            SortedGroupCount(source(ctx, ("g", "x"), sorted(rows)), ["g"])
        )
        assert hashed.set_equal(sorted_counts)
