"""Executor-level instrumentation: sort spills, hash-table overflows,
and the adaptive division driver's retry metrics.

These counters feed the ``repro_sort_*``, ``repro_hash_table_*`` and
``repro_division_*`` metric families; every one is also readable as a
plain attribute so tests (and cost studies) need no tracer at all.
"""

import pytest

from repro.core.partitioned import hash_division_with_overflow
from repro.errors import HashTableOverflowError
from repro.executor.hash_table import ChainedHashTable
from repro.executor.iterator import ExecContext, run_to_relation
from repro.executor.scan import RelationSource
from repro.executor.sort import ExternalSort
from repro.metering import CpuCounters
from repro.obs.span import Tracer
from repro.relalg.relation import Relation
from repro.storage.config import StorageConfig
from repro.storage.memory import MemoryPool


def sort_ctx(sort_records: int, tracer=None) -> ExecContext:
    """A context whose sort buffer holds exactly ``sort_records`` rows."""
    record_size = 16
    config = StorageConfig(sort_buffer_size=sort_records * record_size)
    return ExecContext(config=config, tracer=tracer)


def shuffled(rows: int) -> Relation:
    values = [((rows - i) * 7 % rows, i) for i in range(rows)]
    return Relation.of_ints(("k", "v"), values)


class TestSortSpillCounters:
    def test_in_memory_sort_spills_nothing(self):
        ctx = sort_ctx(sort_records=128)
        plan = ExternalSort(RelationSource(ctx, shuffled(64)), ["k"])
        run_to_relation(plan)
        assert plan.runs_spilled == 0
        assert plan.run_lengths == []

    def test_spilling_sort_counts_runs_and_lengths(self):
        ctx = sort_ctx(sort_records=32)
        plan = ExternalSort(RelationSource(ctx, shuffled(100)), ["k"])
        result = run_to_relation(plan)
        assert len(result) == 100
        assert plan.runs_spilled == len(plan.run_lengths)
        assert plan.runs_spilled >= 2
        assert sum(plan.run_lengths) == 100
        assert all(length <= 32 for length in plan.run_lengths)

    def test_sort_metrics_reach_the_tracer(self):
        tracer = Tracer()
        ctx = sort_ctx(sort_records=32, tracer=tracer)
        plan = ExternalSort(RelationSource(ctx, shuffled(100)), ["k"])
        run_to_relation(plan)
        assert (
            tracer.metrics.value("repro_sort_spill_runs_total") == plan.runs_spilled
        )
        histogram = tracer.metrics.histogram("repro_sort_run_length_rows")
        assert histogram.count == plan.runs_spilled
        assert histogram.sum == sum(plan.run_lengths)

    def test_reopen_resets_spill_counters(self):
        ctx = sort_ctx(sort_records=32)
        plan = ExternalSort(RelationSource(ctx, shuffled(100)), ["k"])
        run_to_relation(plan)
        first = plan.runs_spilled
        run_to_relation(plan)  # second open/drain cycle
        assert first >= 2
        assert plan.runs_spilled == first  # reset, then recounted


class TestHashTableOverflowCounters:
    def tight_table(self, tracer=None) -> ChainedHashTable:
        return ChainedHashTable(
            CpuCounters(),
            MemoryPool(budget=512),
            bucket_count=4,
            entry_bytes=64,
            tag="test-table",
            tracer=tracer,
        )

    def fill_until_overflow(self, table: ChainedHashTable) -> None:
        with pytest.raises(HashTableOverflowError):
            for i in range(1000):
                table.find_or_insert((i,), lambda i=i: i)

    def test_overflow_attribute_counts(self):
        table = self.tight_table()
        assert table.overflows == 0
        self.fill_until_overflow(table)
        assert table.overflows == 1

    def test_overflow_metric_labelled_by_table_and_site(self):
        tracer = Tracer()
        table = self.tight_table(tracer=tracer)
        self.fill_until_overflow(table)
        assert (
            tracer.metrics.value(
                "repro_hash_table_overflows_total",
                table="test-table",
                site="find_or_insert",
            )
            == 1
        )

    def test_no_tracer_means_no_metrics_but_still_counts(self):
        table = self.tight_table(tracer=None)
        self.fill_until_overflow(table)
        assert table.overflows == 1  # attribute works without any tracer


class TestDivisionRetryMetrics:
    def big_workload(self):
        divisor = Relation.of_ints(("d",), [(d,) for d in range(40)], name="S")
        dividend = Relation.of_ints(
            ("q", "d"), [(q, d) for q in range(300) for d in range(40)], name="R"
        )
        return dividend, divisor

    def test_retries_and_fanout_are_recorded(self):
        dividend, divisor = self.big_workload()
        tracer = Tracer()
        ctx = ExecContext(memory_budget=12 * 1024, tracer=tracer)
        result = hash_division_with_overflow(
            RelationSource(ctx, dividend),
            RelationSource(ctx, divisor),
            strategy="quotient",
        )
        assert len(result) == 300
        retries = tracer.metrics.value(
            "repro_division_overflow_retries_total", strategy="quotient"
        )
        fanout = tracer.metrics.value(
            "repro_division_partition_fanout", strategy="quotient"
        )
        assert retries >= 1
        # The gauge keeps the fan-out that finally fit: 2^retries.
        assert fanout == 2**retries

    def test_single_phase_fit_records_nothing(self):
        dividend, divisor = self.big_workload()
        tracer = Tracer()
        ctx = ExecContext(tracer=tracer)  # unbounded: no retry needed
        hash_division_with_overflow(
            RelationSource(ctx, dividend),
            RelationSource(ctx, divisor),
        )
        with pytest.raises(KeyError):
            tracer.metrics.value(
                "repro_division_overflow_retries_total", strategy="quotient"
            )
