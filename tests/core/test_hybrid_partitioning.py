"""Tests for hybrid quotient partitioning (§3.4, hybrid-hash style)."""

import pytest

from repro.core.partitioned import PartitionedHashDivision
from repro.executor.iterator import ExecContext, run_to_relation
from repro.executor.scan import RelationSource
from repro.relalg import algebra
from repro.relalg.relation import Relation


@pytest.fixture
def workload():
    rows = [(q, d) for q in range(60) for d in range(10)]
    rows = [r for r in rows if not (r[0] % 7 == 3 and r[1] == 4)]
    dividend = Relation.of_ints(("q", "d"), rows, name="R")
    divisor = Relation.of_ints(("d",), [(d,) for d in range(10)], name="S")
    expected = algebra.divide_set_semantics(dividend, divisor)
    return dividend, divisor, expected


class TestHybrid:
    @pytest.mark.parametrize("partitions", [1, 2, 4, 7])
    def test_matches_oracle(self, ctx, workload, partitions):
        dividend, divisor, expected = workload
        result = run_to_relation(
            PartitionedHashDivision(
                RelationSource(ctx, dividend),
                RelationSource(ctx, divisor),
                quotient_partitions=partitions,
                hybrid=True,
            )
        )
        assert result.set_equal(expected)

    def test_hybrid_spools_less(self, workload):
        dividend, divisor, _ = workload
        plain_ctx = ExecContext()
        run_to_relation(
            PartitionedHashDivision(
                RelationSource(plain_ctx, dividend),
                RelationSource(plain_ctx, divisor),
                quotient_partitions=4,
                hybrid=False,
            )
        )
        hybrid_ctx = ExecContext()
        run_to_relation(
            PartitionedHashDivision(
                RelationSource(hybrid_ctx, dividend),
                RelationSource(hybrid_ctx, divisor),
                quotient_partitions=4,
                hybrid=True,
            )
        )
        plain_bytes = plain_ctx.io_stats.counters("temp").bytes_total
        hybrid_bytes = hybrid_ctx.io_stats.counters("temp").bytes_total
        # Cluster 0 (~1/4 of the dividend) never hits the temp device.
        assert hybrid_bytes <= plain_bytes

    def test_single_partition_hybrid_never_spools(self, ctx, workload):
        dividend, divisor, expected = workload
        result = run_to_relation(
            PartitionedHashDivision(
                RelationSource(ctx, dividend),
                RelationSource(ctx, divisor),
                quotient_partitions=1,
                hybrid=True,
            )
        )
        assert result.set_equal(expected)
        assert ctx.io_stats.counters("temp").transfers == 0

    def test_temp_pages_released(self, ctx, workload):
        dividend, divisor, _ = workload
        run_to_relation(
            PartitionedHashDivision(
                RelationSource(ctx, dividend),
                RelationSource(ctx, divisor),
                quotient_partitions=4,
                hybrid=True,
            )
        )
        assert ctx.temp_disk.page_count == 0
