"""Tests for the hash-division operator (Figure 1 and Section 3.3)."""

import pytest

from repro.errors import DivisionError, ExecutionError
from repro import divide
from repro.core.hash_division import HashDivision
from repro.executor.iterator import ExecContext, run_to_relation
from repro.executor.scan import RelationSource
from repro.relalg.relation import Relation


def operator(ctx, dividend, divisor, **kwargs):
    return HashDivision(
        RelationSource(ctx, dividend), RelationSource(ctx, divisor), **kwargs
    )


class TestBasicDivision:
    def test_paper_first_example(self, ctx, transcript, courses, expected_quotient):
        dividend = Relation.of_ints(
            ("student_id", "course_no"),
            [(s, c) for s, c in transcript.rows],
        )
        result = run_to_relation(operator(ctx, dividend, courses))
        assert set(result.rows) == expected_quotient

    def test_divide_entry_point(self, transcript, courses, expected_quotient):
        dividend = Relation.of_ints(
            ("student_id", "course_no"), list(transcript.rows)
        )
        quotient = divide(dividend, courses, strategy="hash-division")
        assert set(quotient.rows) == expected_quotient

    def test_quotient_schema(self, ctx):
        dividend = Relation.of_ints(("q1", "d", "q2"), [])
        divisor = Relation.of_ints(("d",), [])
        plan = operator(ctx, dividend, divisor)
        assert plan.schema.names == ("q1", "q2")

    def test_nonmatching_dividend_tuples_discarded(self, ctx):
        dividend = Relation.of_ints(("q", "d"), [(1, 5), (1, 99), (2, 99)])
        divisor = Relation.of_ints(("d",), [(5,)])
        result = run_to_relation(operator(ctx, dividend, divisor))
        assert result.rows == [(1,)]

    def test_empty_dividend(self, ctx):
        dividend = Relation.of_ints(("q", "d"), [])
        divisor = Relation.of_ints(("d",), [(1,)])
        assert run_to_relation(operator(ctx, dividend, divisor)).rows == []

    def test_empty_divisor_is_vacuous(self, ctx):
        dividend = Relation.of_ints(("q", "d"), [(1, 5), (2, 6), (1, 7)])
        divisor = Relation.of_ints(("d",), [])
        result = run_to_relation(operator(ctx, dividend, divisor))
        assert sorted(result.rows) == [(1,), (2,)]

    def test_invalid_schemas_rejected(self, ctx):
        dividend = Relation.of_ints(("q", "d"), [])
        with pytest.raises(DivisionError):
            operator(ctx, dividend, Relation.of_ints(("other",), []))

    def test_contexts_must_match(self, transcript, courses):
        a, b = ExecContext(), ExecContext()
        with pytest.raises(ExecutionError):
            HashDivision(RelationSource(a, transcript), RelationSource(b, courses))

    def test_unknown_mode_rejected(self, ctx, transcript, courses):
        dividend = Relation.of_ints(("s", "c"), list(transcript.rows))
        with pytest.raises(DivisionError):
            operator(ctx, dividend, courses, mode="bogus")


class TestDuplicateHandling:
    def test_divisor_duplicates_eliminated_on_the_fly(self, ctx):
        dividend = Relation.of_ints(("q", "d"), [(1, 5), (1, 6)])
        divisor = Relation.of_ints(("d",), [(5,), (5,), (6,), (5,)])
        result = run_to_relation(operator(ctx, dividend, divisor))
        assert result.rows == [(1,)]

    def test_dividend_duplicates_ignored(self, ctx):
        dividend = Relation.of_ints(
            ("q", "d"), [(1, 5), (1, 5), (1, 5), (2, 5), (2, 6), (1, 6)]
        )
        divisor = Relation.of_ints(("d",), [(5,), (6,)])
        result = run_to_relation(operator(ctx, dividend, divisor))
        assert sorted(result.rows) == [(1,), (2,)]

    def test_counter_mode_correct_without_duplicates(self, ctx):
        dividend = Relation.of_ints(("q", "d"), [(1, 5), (1, 6), (2, 5)])
        divisor = Relation.of_ints(("d",), [(5,), (6,)])
        result = run_to_relation(operator(ctx, dividend, divisor, mode="counter"))
        assert result.rows == [(1,)]

    def test_counter_mode_fooled_by_duplicates(self, ctx):
        """Section 3.3: counters are only safe without duplicates --
        a duplicated tuple inflates the count to the divisor count."""
        dividend = Relation.of_ints(("q", "d"), [(2, 5), (2, 5)])
        divisor = Relation.of_ints(("d",), [(5,), (6,)])
        wrong = run_to_relation(operator(ctx, dividend, divisor, mode="counter"))
        assert wrong.rows == [(2,)]  # the documented failure
        right = run_to_relation(operator(ctx, dividend, divisor, mode="bitmap"))
        assert right.rows == []


class TestEarlyOutput:
    def test_streams_quotient_tuples(self, ctx):
        dividend = Relation.of_ints(
            ("q", "d"), [(1, 5), (1, 6), (2, 5), (2, 6), (3, 5)]
        )
        divisor = Relation.of_ints(("d",), [(5,), (6,)])
        plan = operator(ctx, dividend, divisor, early_output=True)
        result = run_to_relation(plan)
        assert sorted(result.rows) == [(1,), (2,)]

    def test_tuple_emitted_at_completion_point(self, ctx):
        """Each quotient tuple appears as soon as its last divisor bit
        arrives, in dividend order."""
        dividend = Relation.of_ints(
            ("q", "d"), [(2, 5), (1, 5), (1, 6), (2, 6)]
        )
        divisor = Relation.of_ints(("d",), [(5,), (6,)])
        plan = operator(ctx, dividend, divisor, early_output=True)
        assert run_to_relation(plan).rows == [(1,), (2,)]

    def test_no_duplicates_emitted(self, ctx):
        dividend = Relation.of_ints(
            ("q", "d"), [(1, 5), (1, 6), (1, 5), (1, 6), (1, 6)]
        )
        divisor = Relation.of_ints(("d",), [(5,), (6,)])
        plan = operator(ctx, dividend, divisor, early_output=True)
        assert run_to_relation(plan).rows == [(1,)]

    def test_early_output_counter_mode(self, ctx):
        dividend = Relation.of_ints(("q", "d"), [(1, 5), (1, 6), (2, 5)])
        divisor = Relation.of_ints(("d",), [(5,), (6,)])
        plan = operator(
            ctx, dividend, divisor, early_output=True, mode="counter"
        )
        assert run_to_relation(plan).rows == [(1,)]

    def test_early_output_vacuous_divisor(self, ctx):
        dividend = Relation.of_ints(("q", "d"), [(1, 9), (1, 9), (2, 9)])
        divisor = Relation.of_ints(("d",), [])
        plan = operator(ctx, dividend, divisor, early_output=True)
        assert run_to_relation(plan).rows == [(1,), (2,)]


class TestResourceHandling:
    def test_tables_freed_after_close(self, ctx, transcript):
        dividend = Relation.of_ints(("s", "c"), list(transcript.rows))
        divisor = Relation.of_ints(("c",), [(10,), (11,)])
        run_to_relation(operator(ctx, dividend, divisor))
        assert ctx.memory.bytes_in_use == 0

    def test_divisor_table_freed_before_output_phase(self, ctx):
        """Figure 1 frees the divisor table once the dividend is
        consumed; memory during step 3 holds only the quotient table."""
        dividend = Relation.of_ints(("q", "d"), [(i, 0) for i in range(100)])
        divisor = Relation.of_ints(("d",), [(0,)])
        plan = operator(ctx, dividend, divisor)
        plan.open()
        bytes_during_output = ctx.memory.bytes_in_use
        tags_alive = {tag.split("#")[0] for tag in ctx.memory.live_tags}
        assert "divisor-table" not in tags_alive
        assert bytes_during_output > 0
        plan.close()
        assert ctx.memory.bytes_in_use == 0

    def test_cpu_metering_shape(self, ctx):
        """Roughly |S| hashes to build + 2 hashes per matching dividend
        tuple (divisor probe + quotient probe), plus one bit per tuple."""
        divisor_rows = [(d,) for d in range(50)]
        dividend_rows = [(q, d) for q in range(10) for d in range(50)]
        dividend = Relation.of_ints(("q", "d"), dividend_rows)
        divisor = Relation.of_ints(("d",), divisor_rows)
        run_to_relation(operator(ctx, dividend, divisor))
        assert ctx.cpu.hashes == 50 + 2 * len(dividend_rows)
        # One set-bit per tuple plus bitmap init/scan overhead.
        assert ctx.cpu.bit_ops >= len(dividend_rows)

    def test_metering_counts_io_for_stored_inputs(self, catalog, ctx):
        dividend = Relation.of_ints(
            ("q", "d"), [(q, d) for q in range(100) for d in range(20)], name="R"
        )
        divisor = Relation.of_ints(("d",), [(d,) for d in range(20)], name="S")
        stored_r = catalog.store(dividend)
        stored_s = catalog.store(divisor)
        ctx.io_stats.reset()
        from repro.executor.scan import StoredRelationScan

        plan = HashDivision(
            StoredRelationScan(ctx, stored_r), StoredRelationScan(ctx, stored_s)
        )
        result = run_to_relation(plan)
        assert len(result) == 100
        reads = ctx.io_stats.counters("data").reads
        assert reads == stored_r.page_count + stored_s.page_count
