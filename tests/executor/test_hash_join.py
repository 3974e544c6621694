"""Tests for the hash semi-join."""

from repro.errors import HashTableOverflowError
from repro.executor.hash_join import HashSemiJoin
from repro.executor.iterator import ExecContext, run_to_relation
from repro.executor.scan import RelationSource
from repro.relalg.relation import Relation

import pytest


def source(ctx, names, rows):
    return RelationSource(ctx, Relation.of_ints(names, rows))


class TestHashSemiJoin:
    def test_keeps_matching_probe_rows(self, ctx):
        probe = source(ctx, ("k", "a"), [(1, 10), (2, 20), (3, 30)])
        build = source(ctx, ("k",), [(1,), (3,)])
        result = run_to_relation(HashSemiJoin(probe, build, ["k"]))
        assert sorted(result.rows) == [(1, 10), (3, 30)]

    def test_probe_duplicates_preserved(self, ctx):
        probe = source(ctx, ("k", "a"), [(1, 10), (1, 10)])
        build = source(ctx, ("k",), [(1,)])
        assert len(run_to_relation(HashSemiJoin(probe, build, ["k"]))) == 2

    def test_build_duplicates_collapsed(self, ctx):
        probe = source(ctx, ("k", "a"), [(1, 10)])
        build = source(ctx, ("k",), [(1,), (1,), (1,)])
        result = run_to_relation(HashSemiJoin(probe, build, ["k"]))
        assert result.rows == [(1, 10)]

    def test_output_order_is_probe_order(self, ctx):
        probe = source(ctx, ("k", "a"), [(3, 1), (1, 2), (2, 3)])
        build = source(ctx, ("k",), [(1,), (2,), (3,)])
        result = run_to_relation(HashSemiJoin(probe, build, ["k"]))
        assert result.rows == [(3, 1), (1, 2), (2, 3)]

    def test_build_table_freed_on_close(self, ctx):
        probe = source(ctx, ("k", "a"), [(1, 10)])
        build = source(ctx, ("k",), [(1,)])
        run_to_relation(HashSemiJoin(probe, build, ["k"]))
        assert ctx.memory.bytes_in_use == 0

    def test_memory_budget_enforced(self):
        ctx = ExecContext(memory_budget=512)
        probe = source(ctx, ("k", "a"), [(i, i) for i in range(10)])
        build = source(ctx, ("k",), [(i,) for i in range(100)])
        plan = HashSemiJoin(probe, build, ["k"])
        with pytest.raises(HashTableOverflowError):
            run_to_relation(plan)
