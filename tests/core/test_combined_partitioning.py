"""Tests for combined quotient x divisor partitioning (§3.4's answer to
"what if both divisor and quotient are too large?")."""

import pytest

from repro.errors import PartitioningError
from repro.core.partitioned import PartitionedHashDivision
from repro.executor.iterator import ExecContext, run_to_relation
from repro.executor.scan import RelationSource
from repro.relalg import algebra
from repro.relalg.relation import Relation


@pytest.fixture
def workload():
    dividend_rows = [(q, d) for q in range(25) for d in range(12)]
    dividend_rows = [r for r in dividend_rows if not (r[0] % 4 == 1 and r[1] == 7)]
    dividend_rows += [(q, 777) for q in range(25)]
    dividend = Relation.of_ints(("q", "d"), dividend_rows, name="R")
    divisor = Relation.of_ints(("d",), [(d,) for d in range(12)], name="S")
    expected = algebra.divide_set_semantics(dividend, divisor)
    return dividend, divisor, expected


class TestCorrectness:
    @pytest.mark.parametrize("q_parts,d_parts", [(1, 1), (2, 2), (3, 2), (2, 5), (4, 4)])
    def test_matches_oracle(self, ctx, workload, q_parts, d_parts):
        dividend, divisor, expected = workload
        result = run_to_relation(
            PartitionedHashDivision(
                RelationSource(ctx, dividend),
                RelationSource(ctx, divisor),
                quotient_partitions=q_parts,
                divisor_partitions=d_parts,
            )
        )
        assert result.set_equal(expected)

    def test_empty_divisor_vacuous(self, ctx):
        dividend = Relation.of_ints(("q", "d"), [(1, 5), (2, 6)])
        divisor = Relation.of_ints(("d",), [])
        result = run_to_relation(
            PartitionedHashDivision(
                RelationSource(ctx, dividend), RelationSource(ctx, divisor), 2, 2
            )
        )
        assert sorted(result.rows) == [(1,), (2,)]

    def test_invalid_partition_counts(self, ctx, workload):
        dividend, divisor, _ = workload
        with pytest.raises(PartitioningError):
            PartitionedHashDivision(
                RelationSource(ctx, dividend), RelationSource(ctx, divisor), 0, 2
            )
        with pytest.raises(PartitioningError):
            PartitionedHashDivision(
                RelationSource(ctx, dividend), RelationSource(ctx, divisor), 2, 0
            )


class TestMemoryBehaviour:
    def test_fits_when_both_tables_are_large(self):
        """Neither strategy alone fits: 600 candidates keep the
        quotient table big, 600 divisor values keep the divisor table
        big.  The combination shrinks both."""
        divisor = Relation.of_ints(("d",), [(d,) for d in range(600)], name="S")
        dividend = Relation.of_ints(
            ("q", "d"), [(q, d) for q in range(600) for d in range(600) if (q + d) % 3],
            name="R",
        )
        # Survivors: candidates holding EVERY divisor value -> none,
        # since each q misses the d with (q + d) % 3 == 0.
        budget = 48 * 1024
        ctx = ExecContext(memory_budget=budget)
        result = run_to_relation(
            PartitionedHashDivision(
                RelationSource(ctx, dividend),
                RelationSource(ctx, divisor),
                quotient_partitions=8,
                divisor_partitions=8,
            )
        )
        assert result.rows == []
        assert ctx.memory.stats.peak_bytes <= budget

    def test_temp_pages_released(self, ctx, workload):
        dividend, divisor, _ = workload
        run_to_relation(
            PartitionedHashDivision(
                RelationSource(ctx, dividend), RelationSource(ctx, divisor), 3, 3
            )
        )
        assert ctx.temp_disk.page_count == 0
