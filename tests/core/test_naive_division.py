"""Tests for the naive sort-based division algorithm."""

import pytest

from repro.errors import DivisionError
from repro import divide
from repro.core.naive_division import NaiveDivision
from repro.executor.iterator import run_to_relation
from repro.executor.scan import RelationSource
from repro.relalg.relation import Relation


def sorted_operator(ctx, dividend_rows, divisor_rows):
    """Build the operator over pre-sorted inputs."""
    dividend = Relation.of_ints(("q", "d"), sorted(set(dividend_rows)))
    divisor = Relation.of_ints(("d",), sorted(set(divisor_rows)))
    return NaiveDivision(
        RelationSource(ctx, dividend), RelationSource(ctx, divisor)
    )


class TestMergeScan:
    def test_basic(self, ctx):
        plan = sorted_operator(
            ctx, [(1, 5), (1, 6), (2, 5)], [(5,), (6,)]
        )
        assert run_to_relation(plan).rows == [(1,)]

    def test_group_with_extra_values_still_qualifies(self, ctx):
        # Tuples matching no divisor value (the physics course) are
        # skipped without disqualifying the group.
        plan = sorted_operator(
            ctx, [(1, 5), (1, 6), (1, 99)], [(5,), (6,)]
        )
        assert run_to_relation(plan).rows == [(1,)]

    def test_group_missing_middle_value_fails(self, ctx):
        plan = sorted_operator(
            ctx, [(1, 5), (1, 7)], [(5,), (6,), (7,)]
        )
        assert run_to_relation(plan).rows == []

    def test_group_missing_last_value_fails(self, ctx):
        plan = sorted_operator(ctx, [(1, 5)], [(5,), (6,)])
        assert run_to_relation(plan).rows == []

    def test_multiple_groups_stream_in_order(self, ctx):
        rows = [(q, d) for q in (1, 2, 3) for d in (5, 6)]
        rows.remove((2, 6))
        plan = sorted_operator(ctx, rows, [(5,), (6,)])
        assert run_to_relation(plan).rows == [(1,), (3,)]

    def test_empty_divisor_is_vacuous(self, ctx):
        plan = sorted_operator(ctx, [(1, 9), (2, 8)], [])
        assert run_to_relation(plan).rows == [(1,), (2,)]

    def test_empty_dividend(self, ctx):
        plan = sorted_operator(ctx, [], [(5,)])
        assert run_to_relation(plan).rows == []

    def test_unsorted_divisor_rejected(self, ctx):
        dividend = Relation.of_ints(("q", "d"), [])
        divisor = Relation.of_ints(("d",), [(6,), (5,)])
        plan = NaiveDivision(
            RelationSource(ctx, dividend), RelationSource(ctx, divisor)
        )
        with pytest.raises(DivisionError):
            plan.open()

    def test_duplicate_divisor_rejected(self, ctx):
        dividend = Relation.of_ints(("q", "d"), [])
        divisor = Relation.of_ints(("d",), [(5,), (5,)])
        plan = NaiveDivision(
            RelationSource(ctx, dividend), RelationSource(ctx, divisor)
        )
        with pytest.raises(DivisionError):
            plan.open()


class TestStrategyWithSorts:
    def test_sorts_and_deduplicates(self, transcript, courses, expected_quotient):
        dividend = Relation.of_ints(
            ("student_id", "course_no"),
            list(transcript.rows) + list(transcript.rows),  # duplicates
        )
        shuffled_divisor = Relation.of_ints(("course_no",), [(11,), (10,), (11,)])
        result = divide(dividend, shuffled_divisor, strategy="naive")
        assert set(result.rows) == expected_quotient

    def test_multi_attribute_quotient_and_divisor(self):
        dividend = Relation.of_ints(
            ("q1", "q2", "d1", "d2"),
            [
                (1, 1, 5, 50),
                (1, 1, 6, 60),
                (1, 2, 5, 50),
            ],
        )
        divisor = Relation.of_ints(("d1", "d2"), [(5, 50), (6, 60)])
        assert divide(dividend, divisor, strategy="naive").rows == [(1, 1)]

    def test_metering_charges_sort_and_scan(self):
        from repro.executor.iterator import ExecContext

        ctx = ExecContext()
        dividend = Relation.of_ints(
            ("q", "d"), [(q, d) for q in range(20) for d in range(10)]
        )
        divisor = Relation.of_ints(("d",), [(d,) for d in range(10)])
        divide(dividend, divisor, strategy="naive", ctx=ctx)
        # Sorting dominates: far more than one comparison per tuple.
        assert ctx.cpu.comparisons > len(dividend)
