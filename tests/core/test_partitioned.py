"""Tests for partitioned hash-division and the overflow driver (§3.4)."""

import pytest

from repro.errors import HashTableOverflowError, PartitioningError
from repro.core import partitioned
from repro.core.hash_division import HashDivision
from repro.core.partitioned import (
    divisor_partitioned_division,
    hash_division_with_overflow,
    quotient_partitioned_division,
)
from repro.executor.iterator import ExecContext, run_to_relation
from repro.executor.scan import RelationSource
from repro.relalg import algebra
from repro.relalg.relation import Relation


@pytest.fixture
def workload():
    dividend_rows = [(q, d) for q in range(20) for d in range(8)]
    # Disqualify half the candidates and add noise.
    dividend_rows = [r for r in dividend_rows if not (r[0] % 2 and r[1] == 3)]
    dividend_rows += [(q, 999) for q in range(20)]
    dividend = Relation.of_ints(("q", "d"), dividend_rows, name="R")
    divisor = Relation.of_ints(("d",), [(d,) for d in range(8)], name="S")
    expected = algebra.divide_set_semantics(dividend, divisor)
    return dividend, divisor, expected


class TestQuotientPartitioning:
    @pytest.mark.parametrize("partitions", [1, 2, 3, 7])
    def test_matches_oracle(self, ctx, workload, partitions):
        dividend, divisor, expected = workload
        result = quotient_partitioned_division(
            RelationSource(ctx, dividend),
            RelationSource(ctx, divisor),
            partitions,
        )
        assert result.set_equal(expected)

    def test_partition_count_validated(self, ctx, workload):
        dividend, divisor, _ = workload
        with pytest.raises(PartitioningError):
            quotient_partitioned_division(
                RelationSource(ctx, dividend), RelationSource(ctx, divisor), 0
            )

    def test_temp_pages_released(self, ctx, workload):
        dividend, divisor, _ = workload
        quotient_partitioned_division(
            RelationSource(ctx, dividend), RelationSource(ctx, divisor), 4
        )
        assert ctx.temp_disk.page_count == 0

    def test_spooling_charges_hashes(self, ctx, workload):
        dividend, divisor, _ = workload
        before = ctx.cpu.hashes
        quotient_partitioned_division(
            RelationSource(ctx, dividend), RelationSource(ctx, divisor), 4
        )
        assert ctx.cpu.hashes - before >= len(dividend)


class TestDivisorPartitioning:
    @pytest.mark.parametrize("partitions", [1, 2, 3, 7])
    def test_matches_oracle(self, ctx, workload, partitions):
        dividend, divisor, expected = workload
        result = divisor_partitioned_division(
            RelationSource(ctx, dividend),
            RelationSource(ctx, divisor),
            partitions,
        )
        assert result.set_equal(expected)

    def test_more_partitions_than_divisor_values(self, ctx):
        # Some divisor clusters are empty and must be skipped.
        dividend = Relation.of_ints(("q", "d"), [(1, 5), (1, 6), (2, 5)])
        divisor = Relation.of_ints(("d",), [(5,), (6,)])
        result = divisor_partitioned_division(
            RelationSource(ctx, dividend), RelationSource(ctx, divisor), 16
        )
        assert result.rows == [(1,)]

    def test_empty_divisor_vacuous(self, ctx):
        dividend = Relation.of_ints(("q", "d"), [(1, 5), (2, 6)])
        divisor = Relation.of_ints(("d",), [])
        result = divisor_partitioned_division(
            RelationSource(ctx, dividend), RelationSource(ctx, divisor), 4
        )
        assert sorted(result.rows) == [(1,), (2,)]


class TestOverflowDriver:
    def make_big(self):
        divisor = Relation.of_ints(("d",), [(d,) for d in range(40)], name="S")
        dividend = Relation.of_ints(
            ("q", "d"), [(q, d) for q in range(300) for d in range(40)], name="R"
        )
        return dividend, divisor

    def test_single_phase_overflows_under_budget(self):
        dividend, divisor = self.make_big()
        ctx = ExecContext(memory_budget=12 * 1024)
        plan = HashDivision(
            RelationSource(ctx, dividend), RelationSource(ctx, divisor)
        )
        with pytest.raises(HashTableOverflowError):
            run_to_relation(plan)
        # Cleanup: the failed attempt leaks no memory.
        assert ctx.memory.bytes_in_use == 0

    def test_quotient_partitioning_recovers_from_large_quotient(self):
        """Quotient partitioning shrinks the quotient table per phase;
        it is the right strategy when the quotient is the memory hog
        (the divisor table must stay resident throughout)."""
        dividend, divisor = self.make_big()  # 300 candidates, 40 divisor values
        ctx = ExecContext(memory_budget=12 * 1024)
        result = hash_division_with_overflow(
            RelationSource(ctx, dividend),
            RelationSource(ctx, divisor),
            strategy="quotient",
        )
        expected = algebra.divide_set_semantics(dividend, divisor)
        assert result.set_equal(expected)
        assert ctx.memory.bytes_in_use == 0

    def test_divisor_partitioning_recovers_from_large_divisor(self):
        """Divisor partitioning shrinks the divisor table (and the bit
        maps) per phase; it is the right strategy when the divisor is
        the memory hog (Section 6's second question)."""
        divisor = Relation.of_ints(("d",), [(d,) for d in range(2000)], name="S")
        dividend = Relation.of_ints(
            ("q", "d"), [(q, d) for q in range(4) for d in range(2000)], name="R"
        )
        ctx = ExecContext(memory_budget=24 * 1024)
        result = hash_division_with_overflow(
            RelationSource(ctx, dividend),
            RelationSource(ctx, divisor),
            strategy="divisor",
        )
        assert sorted(result.rows) == [(q,) for q in range(4)]
        assert ctx.memory.bytes_in_use == 0

    def test_driver_uses_single_phase_when_it_fits(self):
        dividend, divisor = self.make_big()
        ctx = ExecContext()  # unbounded
        result = hash_division_with_overflow(
            RelationSource(ctx, dividend),
            RelationSource(ctx, divisor),
        )
        assert len(result) == 300
        # No partitioning happened: nothing was spooled to temp.
        assert ctx.io_stats.counters("temp").transfers == 0

    def test_driver_gives_up_past_max_partitions(self, monkeypatch):
        monkeypatch.setattr(partitioned, "MAX_PARTITIONS", 4)
        dividend, divisor = self.make_big()
        ctx = ExecContext(memory_budget=1024)  # hopeless
        with pytest.raises(
            HashTableOverflowError, match="with 4 partitions; increase the memory budget$"
        ):
            hash_division_with_overflow(
                RelationSource(ctx, dividend),
                RelationSource(ctx, divisor),
            )

    def test_unknown_strategy_rejected(self):
        ctx = ExecContext()
        empty = Relation.of_ints(("q", "d"), [])
        divisor = Relation.of_ints(("d",), [])
        with pytest.raises(PartitioningError):
            hash_division_with_overflow(
                RelationSource(ctx, empty),
                RelationSource(ctx, divisor),
                strategy="bogus",
            )
