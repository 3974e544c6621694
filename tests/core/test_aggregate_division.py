"""Tests for division by counting (sort- and hash-based aggregation)."""

import pytest

from repro.errors import DivisionError
from repro.core.aggregate_division import (
    HashAggregateDivision,
    SortAggregateDivision,
)
from repro.executor.iterator import ExecContext, run_to_relation
from repro.executor.scan import RelationSource
from repro.relalg.relation import Relation

OPERATORS = (SortAggregateDivision, HashAggregateDivision)


def _divide(operator, dividend, divisor, with_join=False, eliminate_duplicates=True, ctx=None):
    """Drain one counting operator over two in-memory inputs."""
    ctx = ctx or ExecContext()
    return run_to_relation(
        operator(
            RelationSource(ctx, dividend),
            RelationSource(ctx, divisor),
            with_join=with_join,
            eliminate_duplicates=eliminate_duplicates,
        )
    )


@pytest.fixture
def clean_case():
    """A dividend whose divisor values all occur in the divisor (the
    referential-integrity case where no join is needed)."""
    dividend = Relation.of_ints(
        ("q", "d"), [(1, 5), (1, 6), (2, 5), (3, 5), (3, 6)]
    )
    divisor = Relation.of_ints(("d",), [(5,), (6,)])
    return dividend, divisor, {(1,), (3,)}


@pytest.fixture
def restricted_case():
    """A dividend with values outside the divisor (the paper's second
    example: the divisor was restricted, so a join is mandatory)."""
    dividend = Relation.of_ints(
        ("q", "d"), [(1, 5), (1, 6), (2, 5), (2, 99), (3, 98), (3, 97)]
    )
    divisor = Relation.of_ints(("d",), [(5,), (6,)])
    return dividend, divisor, {(1,)}


class TestWithoutJoin:
    @pytest.mark.parametrize("operator", OPERATORS)
    def test_correct_under_referential_integrity(self, operator, clean_case):
        dividend, divisor, expected = clean_case
        assert set(_divide(operator, dividend, divisor).rows) == expected

    @pytest.mark.parametrize("operator", OPERATORS)
    def test_wrong_without_join_when_divisor_restricted(
        self, operator, restricted_case
    ):
        """Documents the precondition: without the semi-join, tuples
        referencing non-divisor values are miscounted."""
        dividend, divisor, expected = restricted_case
        result = set(_divide(operator, dividend, divisor, with_join=False).rows)
        assert result != expected  # (2,) or (3,) sneaks in


class TestWithJoin:
    @pytest.mark.parametrize("operator", OPERATORS)
    def test_correct_with_restricted_divisor(self, operator, restricted_case):
        dividend, divisor, expected = restricted_case
        assert set(_divide(operator, dividend, divisor, with_join=True).rows) == expected

    @pytest.mark.parametrize("operator", OPERATORS)
    def test_join_harmless_on_clean_input(self, operator, clean_case):
        dividend, divisor, expected = clean_case
        assert set(_divide(operator, dividend, divisor, with_join=True).rows) == expected


class TestDuplicates:
    @pytest.mark.parametrize("operator", OPERATORS)
    def test_duplicates_handled_when_elimination_requested(self, operator):
        dividend = Relation.of_ints(
            ("q", "d"), [(1, 5), (1, 5), (1, 6), (2, 5), (2, 5)]
        )
        divisor = Relation.of_ints(("d",), [(5,), (6,), (5,)])
        result = _divide(operator, dividend, divisor, eliminate_duplicates=True)
        assert set(result.rows) == {(1,)}

    @pytest.mark.parametrize("operator", OPERATORS)
    def test_duplicates_break_counting_without_elimination(self, operator):
        """Footnote 1: counting without explicit duplicate elimination
        is wrong on inputs with duplicates."""
        dividend = Relation.of_ints(("q", "d"), [(2, 5), (2, 5)])
        divisor = Relation.of_ints(("d",), [(5,), (6,)])
        wrong = _divide(operator, dividend, divisor, eliminate_duplicates=False)
        assert set(wrong.rows) == {(2,)}  # counted 2 "courses"

    @pytest.mark.parametrize("operator", OPERATORS)
    def test_divisor_duplicates_inflate_target_without_elimination(self, operator):
        dividend = Relation.of_ints(("q", "d"), [(1, 5), (1, 6)])
        divisor = Relation.of_ints(("d",), [(5,), (6,), (6,)])
        wrong = _divide(operator, dividend, divisor, eliminate_duplicates=False)
        assert wrong.rows == []  # target count 3, actual 2
        right = _divide(operator, dividend, divisor, eliminate_duplicates=True)
        assert right.rows == [(1,)]


class TestEdgeCases:
    @pytest.mark.parametrize("operator", OPERATORS)
    def test_empty_divisor_rejected(self, operator):
        dividend = Relation.of_ints(("q", "d"), [(1, 5)])
        divisor = Relation.of_ints(("d",), [])
        with pytest.raises(DivisionError):
            _divide(operator, dividend, divisor)

    @pytest.mark.parametrize("operator", OPERATORS)
    def test_empty_dividend(self, operator):
        dividend = Relation.of_ints(("q", "d"), [])
        divisor = Relation.of_ints(("d",), [(5,)])
        assert _divide(operator, dividend, divisor).rows == []

    @pytest.mark.parametrize("operator", OPERATORS)
    def test_multi_attribute_keys(self, operator):
        dividend = Relation.of_ints(
            ("q1", "q2", "d1", "d2"),
            [(1, 1, 5, 50), (1, 1, 6, 60), (2, 2, 5, 50)],
        )
        divisor = Relation.of_ints(("d1", "d2"), [(5, 50), (6, 60)])
        assert _divide(operator, dividend, divisor).rows == [(1, 1)]

    def test_memory_released(self):
        ctx = ExecContext()
        dividend = Relation.of_ints(
            ("q", "d"), [(q, d) for q in range(50) for d in range(5)]
        )
        divisor = Relation.of_ints(("d",), [(d,) for d in range(5)])
        _divide(HashAggregateDivision, dividend, divisor, with_join=True, ctx=ctx)
        assert ctx.memory.bytes_in_use == 0

    def test_sort_path_uses_external_sort_metering(self):
        ctx = ExecContext()
        dividend = Relation.of_ints(
            ("q", "d"), [(q, d) for q in range(30) for d in range(4)]
        )
        divisor = Relation.of_ints(("d",), [(d,) for d in range(4)])
        _divide(SortAggregateDivision, dividend, divisor, ctx=ctx)
        assert ctx.cpu.comparisons > 0

    def test_hash_path_uses_hash_metering(self):
        ctx = ExecContext()
        dividend = Relation.of_ints(
            ("q", "d"), [(q, d) for q in range(30) for d in range(4)]
        )
        divisor = Relation.of_ints(("d",), [(d,) for d in range(4)])
        _divide(HashAggregateDivision, dividend, divisor, ctx=ctx)
        assert ctx.cpu.hashes > 0
