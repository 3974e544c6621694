"""Tests for the external merge sort."""

import pytest

from repro.errors import ExecutionError
from repro.executor.iterator import ExecContext, run_to_relation
from repro.executor.scan import RelationSource
from repro.executor.sort import ExternalSort, count_reducer
from repro.relalg.relation import Relation
from repro.storage.config import StorageConfig


def tiny_sort_config(sort_records: int, record_size: int = 16) -> StorageConfig:
    """A config whose sort buffer holds exactly ``sort_records`` rows."""
    return StorageConfig(
        page_size=8192,
        sort_run_page_size=1024,
        buffer_size=64 * 1024,
        memory_limit=256 * 1024,
        sort_buffer_size=sort_records * record_size,
    )


class TestInMemorySort:
    def test_sorts_small_input_without_io(self, ctx):
        relation = Relation.of_ints(("a", "b"), [(3, 0), (1, 0), (2, 0)])
        plan = ExternalSort(RelationSource(ctx, relation), ["a"])
        assert run_to_relation(plan).rows == [(1, 0), (2, 0), (3, 0)]
        assert ctx.io_cost_ms() == 0.0
        assert plan.merge_passes_performed == 0

    def test_major_minor_keys(self, ctx):
        relation = Relation.of_ints(("q", "d"), [(2, 1), (1, 2), (1, 1), (2, 0)])
        plan = ExternalSort(RelationSource(ctx, relation), ["q", "d"])
        assert run_to_relation(plan).rows == [(1, 1), (1, 2), (2, 0), (2, 1)]

    def test_distinct_removes_full_duplicates(self, ctx):
        relation = Relation.of_ints(("a", "b"), [(1, 1), (1, 1), (2, 2)])
        plan = ExternalSort(RelationSource(ctx, relation), ["a", "b"], distinct=True)
        assert run_to_relation(plan).rows == [(1, 1), (2, 2)]

    def test_distinct_and_reducer_mutually_exclusive(self, ctx):
        relation = Relation.of_ints(("a",), [])
        reducer = count_reducer(relation.schema, ["a"])
        with pytest.raises(ExecutionError):
            ExternalSort(
                RelationSource(ctx, relation), ["a"], distinct=True, reducer=reducer
            )

    def test_counting_sort_sorts_on_its_group_attributes(self, ctx):
        relation = Relation.of_ints(("a", "b"), [])
        reducer = count_reducer(relation.schema, ["a"])
        with pytest.raises(ExecutionError):
            ExternalSort(RelationSource(ctx, relation), ["count"], reducer=reducer)

    def test_charges_quicksort_comparisons(self, ctx):
        relation = Relation.of_ints(("a",), [(i,) for i in range(64)])
        run_to_relation(ExternalSort(RelationSource(ctx, relation), ["a"]))
        # 2 n log2 n = 2 * 64 * 6 = 768.
        assert ctx.cpu.comparisons == 768


class TestExternalSort:
    def test_spills_and_sorts(self):
        ctx = ExecContext(config=tiny_sort_config(sort_records=32))
        rows = [(i * 37 % 997, i) for i in range(500)]
        relation = Relation.of_ints(("k", "v"), rows)
        plan = ExternalSort(RelationSource(ctx, relation), ["k", "v"])
        result = run_to_relation(plan)
        assert result.rows == sorted(rows)

    def test_spilled_runs_reach_disk_under_buffer_pressure(self):
        # With a one-page buffer the run pages cannot all stay
        # resident, so physical run I/O must occur.
        config = StorageConfig(
            page_size=8192,
            sort_run_page_size=1024,
            buffer_size=8192,
            memory_limit=2 * 8192,
            sort_buffer_size=32 * 16,
        )
        ctx = ExecContext(config=config)
        rows = [(i * 37 % 997, i) for i in range(2000)]
        relation = Relation.of_ints(("k", "v"), rows)
        plan = ExternalSort(RelationSource(ctx, relation), ["k", "v"])
        result = run_to_relation(plan)
        assert result.rows == sorted(rows)
        counters = ctx.io_stats.counters("runs")
        assert counters.writes > 0 and counters.reads > 0

    def test_multiple_merge_passes_with_tiny_fan_in(self):
        config = StorageConfig(
            page_size=8192,
            sort_run_page_size=1024,
            buffer_size=64 * 1024,
            memory_limit=256 * 1024,
            sort_buffer_size=2 * 1024,  # fan-in 2, 128 records per run
        )
        ctx = ExecContext(config=config)
        rows = [((i * 7919) % 104729, 0) for i in range(3000)]
        relation = Relation.of_ints(("k", "v"), rows)
        plan = ExternalSort(RelationSource(ctx, relation), ["k"])
        result = run_to_relation(plan)
        assert [row[0] for row in result.rows] == sorted(row[0] for row in rows)
        assert plan.merge_passes_performed >= 1

    def test_spilled_distinct(self):
        ctx = ExecContext(config=tiny_sort_config(sort_records=16))
        rows = [(i % 50, i % 50) for i in range(400)]
        relation = Relation.of_ints(("a", "b"), rows)
        plan = ExternalSort(RelationSource(ctx, relation), ["a", "b"], distinct=True)
        assert run_to_relation(plan).rows == [(i, i) for i in range(50)]

    def test_run_files_destroyed_on_close(self):
        ctx = ExecContext(config=tiny_sort_config(sort_records=16))
        relation = Relation.of_ints(("a", "b"), [(i, 0) for i in range(200)])
        plan = ExternalSort(RelationSource(ctx, relation), ["a"])
        run_to_relation(plan)
        assert ctx.run_disk.page_count == 0

    def test_reopen_resorts(self, ctx):
        relation = Relation.of_ints(("a",), [(2,), (1,)])
        plan = ExternalSort(RelationSource(ctx, relation), ["a"])
        assert run_to_relation(plan).rows == [(1,), (2,)]
        assert run_to_relation(plan).rows == [(1,), (2,)]


class TestEarlyAggregation:
    def test_count_reducer_in_memory(self, ctx):
        relation = Relation.of_ints(("q", "d"), [(1, 5), (1, 6), (2, 5)])
        reducer = count_reducer(relation.schema, ["q"])
        plan = ExternalSort(RelationSource(ctx, relation), ["q"], reducer=reducer)
        result = run_to_relation(plan)
        assert result.rows == [(1, 2), (2, 1)]
        assert result.schema.names == ("q", "count")

    def test_count_reducer_spilled_keeps_runs_small(self):
        """"No intermediate run contains duplicate sort keys": early
        aggregation bounds run size by the number of groups."""
        ctx = ExecContext(config=tiny_sort_config(sort_records=64))
        rows = [(i % 4, i) for i in range(2000)]
        relation = Relation.of_ints(("q", "d"), rows)
        reducer = count_reducer(relation.schema, ["q"])
        plan = ExternalSort(RelationSource(ctx, relation), ["q"], reducer=reducer)
        result = run_to_relation(plan)
        assert result.rows == [(q, 500) for q in range(4)]
        # Each spilled run holds at most 4 (collapsed) tuples, so run
        # I/O is tiny compared to the input size.
        assert ctx.io_stats.counters("runs").bytes_written <= 2000 * 16

    def test_empty_input(self, ctx):
        relation = Relation.of_ints(("q", "d"), [])
        reducer = count_reducer(relation.schema, ["q"])
        plan = ExternalSort(RelationSource(ctx, relation), ["q"], reducer=reducer)
        assert run_to_relation(plan).rows == []
