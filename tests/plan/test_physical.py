"""Tests for the strategy factory and the physical plan wrapper."""

import pytest

from repro.errors import DivisionError
from repro.executor.iterator import ExecContext, run_to_relation
from repro.executor.scan import RelationSource
from repro.plan.physical import (
    DIVISION_OPERATOR_STRATEGIES,
    build_division_operator,
)
from repro.plan.logical import DivideNode, SourceNode
from repro.plan.planner import compile_plan
from repro.relalg import algebra
from repro.relalg.relation import Relation


def inputs(ctx, dividend_rows, divisor_rows):
    dividend = Relation.of_ints(("q", "d"), dividend_rows, name="R")
    divisor = Relation.of_ints(("d",), divisor_rows, name="S")
    return (
        RelationSource(ctx, dividend),
        RelationSource(ctx, divisor),
        dividend,
        divisor,
    )


class TestBuildDivisionOperator:
    @pytest.mark.parametrize("strategy", DIVISION_OPERATOR_STRATEGIES)
    def test_every_strategy_computes_the_division(self, ctx, strategy):
        rows = [(q, d) for q in range(6) for d in range(4)]
        rows += [(9, 0), (9, 1)]  # an incomplete candidate
        dividend_scan, divisor_scan, dividend, divisor = inputs(
            ctx, rows, [(d,) for d in range(4)]
        )
        operator = build_division_operator(strategy, dividend_scan, divisor_scan)
        result = run_to_relation(operator, name="out")
        expected = algebra.divide_set_semantics(dividend, divisor)
        assert result.set_equal(expected.rename("out"))
        assert ctx.memory.bytes_in_use == 0

    def test_duplicate_inputs_with_eliminate_duplicates(self, ctx):
        rows = [(1, 0), (1, 1), (1, 1), (2, 0)]
        dividend_scan, divisor_scan, *_ = inputs(ctx, rows, [(0,), (1,)])
        operator = build_division_operator(
            "hash-agg no join",
            dividend_scan,
            divisor_scan,
            eliminate_duplicates=True,
        )
        result = run_to_relation(operator)
        assert sorted(result.rows) == [(1,)]

    def test_unknown_strategy_rejected(self, ctx):
        dividend_scan, divisor_scan, *_ = inputs(ctx, [], [(1,)])
        with pytest.raises(DivisionError, match="unknown strategy"):
            build_division_operator("quantum", dividend_scan, divisor_scan)


class TestPhysicalPlan:
    def _plan(self, ctx, dividend_rows, divisor_rows):
        dividend = Relation.of_ints(("q", "d"), dividend_rows, name="R")
        divisor = Relation.of_ints(("d",), divisor_rows, name="S")
        node = DivideNode(SourceNode(dividend), SourceNode(divisor))
        return compile_plan(node, ctx), dividend, divisor

    def test_execute_names_the_result(self, ctx):
        plan, dividend, divisor = self._plan(
            ctx, [(1, 0), (1, 1), (2, 0)], [(0,), (1,)]
        )
        result = plan.execute(name="quotient")
        assert result.name == "quotient"
        assert sorted(result.rows) == [(1,)]

    def test_explain_contains_decision_and_tree(self, ctx):
        plan, *_ = self._plan(ctx, [(1, 0)], [(0,)])
        text = plan.explain()
        assert "Division strategy:" in text
        assert "Source" in text or "RelationSource" in text

    def test_overflow_falls_back_to_partitioned_division(self):
        """A tight budget overflows the single-phase hash table; the
        plan transparently re-runs through Section 3.4 partitioning and
        still produces the exact quotient."""
        dividend_rows = [(q, d) for q in range(300) for d in range(40)]
        divisor_rows = [(d,) for d in range(40)]
        ctx = ExecContext(memory_budget=4 * 1024)
        plan, dividend, divisor = self._plan(ctx, dividend_rows, divisor_rows)
        result = plan.execute(name="quotient")
        expected = algebra.divide_set_semantics(dividend, divisor)
        assert result.set_equal(expected)
        assert len(result) == 300
        assert ctx.memory.bytes_in_use == 0
        # Partitioning spooled to the temp device -- proof the fallback
        # (not a lucky single-phase pass) produced the answer.
        assert ctx.io_stats.counters("temp").transfers > 0

    def test_overflow_fallback_runs_standalone(self):
        """The fallback serve degrades to: called directly, without a
        prior overflow, it still yields the exact quotient."""
        ctx = ExecContext()
        plan, dividend, divisor = self._plan(
            ctx, [(1, 0), (1, 1), (2, 0), (3, 1), (3, 0)], [(0,), (1,)]
        )
        result = plan.overflow_fallback(name="quotient")
        assert result.name == "quotient"
        assert result.set_equal(algebra.divide_set_semantics(dividend, divisor))
        assert ctx.memory.bytes_in_use == 0

    def test_empty_divisor_is_vacuously_true(self, ctx):
        plan, *_ = self._plan(ctx, [(1, 0), (2, 1), (1, 0)], [])
        result = plan.execute()
        assert sorted(result.rows) == [(1,), (2,)]
