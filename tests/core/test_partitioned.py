"""Tests for partitioned hash-division and the overflow driver (§3.4)."""

import pytest

from repro.errors import ExecutionError, HashTableOverflowError, PartitioningError
from repro.core import partitioned
from repro.core.hash_division import HashDivision
from repro.core.partitioned import PartitionedHashDivision, hash_division_with_overflow
from repro.executor.iterator import ExecContext, run_to_relation
from repro.executor.scan import RelationSource
from repro.relalg import algebra
from repro.relalg.relation import Relation
from repro.storage.config import StorageConfig


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
        result = run_to_relation(
            PartitionedHashDivision(
                RelationSource(ctx, dividend),
                RelationSource(ctx, divisor),
                quotient_partitions=partitions,
            )
        )
        assert result.set_equal(expected)

    def test_partition_count_validated(self, ctx, workload):
        dividend, divisor, _ = workload
        with pytest.raises(PartitioningError):
            PartitionedHashDivision(
                RelationSource(ctx, dividend),
                RelationSource(ctx, divisor),
                quotient_partitions=0,
            )

    def test_temp_pages_released(self, ctx, workload):
        dividend, divisor, _ = workload
        run_to_relation(
            PartitionedHashDivision(
                RelationSource(ctx, dividend),
                RelationSource(ctx, divisor),
                quotient_partitions=4,
            )
        )
        assert ctx.temp_disk.page_count == 0

    def test_spooling_charges_hashes(self, ctx, workload):
        dividend, divisor, _ = workload
        before = ctx.cpu.hashes
        run_to_relation(
            PartitionedHashDivision(
                RelationSource(ctx, dividend),
                RelationSource(ctx, divisor),
                quotient_partitions=4,
            )
        )
        assert ctx.cpu.hashes - before >= len(dividend)


class TestDivisorPartitioning:
    @pytest.mark.parametrize("partitions", [1, 2, 3, 7])
    def test_matches_oracle(self, ctx, workload, partitions):
        dividend, divisor, expected = workload
        result = run_to_relation(
            PartitionedHashDivision(
                RelationSource(ctx, dividend),
                RelationSource(ctx, divisor),
                divisor_partitions=partitions,
            )
        )
        assert result.set_equal(expected)

    def test_more_partitions_than_divisor_values(self, ctx):
        # Some divisor clusters are empty and must be skipped.
        dividend = Relation.of_ints(("q", "d"), [(1, 5), (1, 6), (2, 5)])
        divisor = Relation.of_ints(("d",), [(5,), (6,)])
        result = run_to_relation(
            PartitionedHashDivision(
                RelationSource(ctx, dividend),
                RelationSource(ctx, divisor),
                divisor_partitions=16,
            )
        )
        assert result.rows == [(1,)]

    def test_empty_divisor_vacuous(self, ctx):
        dividend = Relation.of_ints(("q", "d"), [(1, 5), (2, 6)])
        divisor = Relation.of_ints(("d",), [])
        result = run_to_relation(
            PartitionedHashDivision(
                RelationSource(ctx, dividend),
                RelationSource(ctx, divisor),
                divisor_partitions=4,
            )
        )
        assert sorted(result.rows) == [(1,), (2,)]


class TestOperator:
    def _division(self, ctx, workload, **partitioning):
        dividend, divisor, _ = workload
        return PartitionedHashDivision(
            RelationSource(ctx, dividend), RelationSource(ctx, divisor), **partitioning
        )

    def test_each_batch_is_one_quotient_cluster(self, ctx, workload):
        """Quotient clusters are disjoint, so the batches are disjoint
        and their concatenation is the quotient."""
        _, _, expected = workload
        division = self._division(ctx, workload, quotient_partitions=4)
        division.open()
        batches = list(iter(division.next_batch, []))
        division.close()
        assert 1 < len(batches) <= 4
        rows = [row for batch in batches for row in batch]
        assert len(rows) == len(set(rows)) and set(rows) == set(expected.rows)

    @pytest.mark.parametrize(
        "partitioning",
        [
            {"quotient_partitions": 4},
            {"quotient_partitions": 4, "hybrid": True},
            {"quotient_partitions": 3, "divisor_partitions": 2},
        ],
    )
    def test_close_between_clusters_destroys_the_unread_ones(
        self, ctx, workload, partitioning
    ):
        division = self._division(ctx, workload, **partitioning)
        division.open()
        assert division.next_batch()
        assert ctx.temp_disk.page_count > 0  # clusters still queued
        division.close()
        assert ctx.temp_disk.page_count == 0
        assert ctx.memory.bytes_in_use == 0
        assert ctx.pool.fixed_page_count() == 0

    def test_reopens_with_the_same_result(self, ctx, workload):
        division = self._division(ctx, workload, quotient_partitions=3)
        assert run_to_relation(division).rows == run_to_relation(division).rows

    @pytest.mark.parametrize(
        "partitioning",
        [{"divisor_partitions": 0}, {"quotient_partitions": -1}, {"hybrid": True}],
    )
    def test_invalid_partitioning_rejected(self, ctx, workload, partitioning):
        with pytest.raises(PartitioningError):
            self._division(ctx, workload, **partitioning)


class TestOverflowAttempts:
    def test_single_phase_then_doubling_then_overflow(self, ctx, monkeypatch, workload):
        monkeypatch.setattr(partitioned, "MAX_PARTITIONS", 8)
        dividend, divisor, _ = workload
        attempts = partitioned.overflow_attempts(
            RelationSource(ctx, dividend), RelationSource(ctx, divisor), "divisor"
        )
        assert isinstance(next(attempts), HashDivision)
        assert [
            (attempt.quotient_partitions, attempt.divisor_partitions)
            for attempt in (next(attempts) for _ in range(3))
        ] == [(None, 2), (None, 4), (None, 8)]
        with pytest.raises(HashTableOverflowError, match="with 8 partitions"):
            next(attempts)

    def test_exhausted_sequence_yields_every_attempts_io(self, monkeypatch):
        """When even the last attempt overflows, the "still overflows"
        error propagates after the failed attempts' I/O was yielded."""
        monkeypatch.setattr(partitioned, "MAX_PARTITIONS", 2)
        dividend, divisor = TestOverflowDriver().make_big()
        # A four-frame pool, so the spool of the last attempt does I/O.
        ctx = ExecContext(
            config=StorageConfig(page_size=512, buffer_size=4 * 512),
            memory_budget=8 * 1024,
        )
        run = partitioned.step_attempts(
            ctx,
            partitioned.overflow_attempts(
                RelationSource(ctx, dividend), RelationSource(ctx, divisor)
            ),
            rows_per_step=50,
        )
        start, deltas = ctx.io_cost_ms(), []
        with pytest.raises(HashTableOverflowError, match="with 2 partitions"):
            while True:
                deltas.append(next(run))
        assert deltas[-1] > 0
        assert sum(deltas) == ctx.io_cost_ms() - start
        assert ctx.memory.bytes_in_use == 0
        assert ctx.temp_disk.page_count == 0

    def test_no_attempt_is_a_typed_error(self, ctx):
        with pytest.raises(ExecutionError, match="at least one attempt"):
            next(partitioned.step_attempts(ctx, [], rows_per_step=1))


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
