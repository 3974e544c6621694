"""Error-path guarantees of the iterator state machine.

A failed ``open()`` never reaches ``_close`` (the state machine stays
CLOSED), so every multi-input or resource-holding operator must unwind
its own partial work: children opened so far are closed and charged
hash tables / bit maps / run files are released.  These tests drive
each operator's ``open()`` into a failure and assert

* the exception propagates unchanged,
* the memory pool is back to zero live bytes (nothing leaked),
* already-opened children are closed again (provable by re-opening).
"""

from __future__ import annotations

import pytest

from repro.errors import SchemaError
from repro.executor.aggregate import HashGroupCount
from repro.executor.distinct import HashDistinct
from repro.executor.filter import Select
from repro.executor.hash_join import HashSemiJoin
from repro.executor.iterator import ExecContext, QueryIterator, open_all
from repro.executor.scan import RelationSource
from repro.executor.sort import ExternalSort
from repro.core.hash_division import HashDivision
from repro.core.naive_division import NaiveDivision
from repro.relalg.predicates import AttributeEquals
from repro.relalg.relation import Relation
from repro.relalg.schema import Schema


class Boom(RuntimeError):
    """The injected failure."""


class FailingOpen(QueryIterator):
    """An operator whose ``open()`` always raises."""

    def __init__(self, ctx, schema: Schema) -> None:
        super().__init__(ctx, schema)

    def _open(self) -> None:
        raise Boom("open failed")

    def _next_batch(self):  # pragma: no cover - never opened
        return []


class ExplodingNext(QueryIterator):
    """Produce ``rows``, then raise instead of reporting exhaustion."""

    def __init__(self, source: RelationSource) -> None:
        super().__init__(source.ctx, source.schema)
        self.source = source

    def _open(self) -> None:
        self.source.open()

    def _next_batch(self):
        row = self.source.next()
        if row is None:
            raise Boom("next failed")
        return [row]

    def _close(self) -> None:
        self.source.close()

    def children(self) -> tuple[QueryIterator, ...]:
        return (self.source,)


def ints(names, rows, name=""):
    return Relation.of_ints(tuple(names), rows, name=name)


def assert_reopenable(operator: QueryIterator) -> None:
    """The operator ended CLOSED: a fresh open/close cycle succeeds."""
    operator.open()
    operator.close()


class TestOpenAll:
    def test_unwinds_already_opened_children(self, ctx):
        first = RelationSource(ctx, ints(("a",), [(1,)]))
        second = FailingOpen(ctx, Schema.of_ints("b"))
        with pytest.raises(Boom):
            open_all((first, second))
        # ``first`` was closed during the unwind: it can be re-opened.
        assert_reopenable(first)

    def test_success_leaves_all_open(self, ctx):
        first = RelationSource(ctx, ints(("a",), [(1,)]))
        second = RelationSource(ctx, ints(("b",), [(2,)]))
        open_all((first, second))
        assert first.next() == (1,)
        assert second.next() == (2,)
        first.close()
        second.close()


class TestSingleInputOperators:
    def test_select_bad_predicate_leaves_input_closed(self, ctx):
        source = RelationSource(ctx, ints(("a",), [(1,)]))
        select = Select(source, AttributeEquals("missing", 1))
        with pytest.raises(SchemaError):
            select.open()
        # The predicate failed to compile before the child was touched.
        assert_reopenable(source)

    def test_hash_distinct_frees_table_when_child_open_fails(self, ctx):
        child = FailingOpen(ctx, Schema.of_ints("a"))
        distinct = HashDistinct(child)
        with pytest.raises(Boom):
            distinct.open()
        assert ctx.memory.bytes_in_use == 0

    def test_hash_group_count_mid_stream_failure(self, ctx):
        source = RelationSource(ctx, ints(("a",), [(1,), (2,)]))
        child = ExplodingNext(source)
        # expected_groups > 0 selects the lazy single-pass mode: the
        # table exists and the child is open when the failure hits.
        counts = HashGroupCount(child, ("a",), expected_groups=4)
        with pytest.raises(Boom):
            counts.open()
        assert ctx.memory.bytes_in_use == 0
        assert_reopenable(source)

    def test_external_sort_destroys_spilled_runs(self, ctx):
        sort = ExternalSort(
            RelationSource(ctx, ints(("a",), [])), key_names=("a",)
        )
        capacity = ctx.config.sort_run_capacity_records(
            sort._codec.record_size
        )
        rows = [(i,) for i in range(capacity + 8)]
        source = RelationSource(ctx, ints(("a",), rows))
        sort = ExternalSort(ExplodingNext(source), key_names=("a",))
        with pytest.raises(Boom):
            sort.open()
        # At least one run had been spilled before the failure; all of
        # them were destroyed during the unwind.
        assert sort._runs == []
        assert_reopenable(source)


class TestJoins:
    def test_semi_join_failed_probe_open_frees_build_table(self, ctx):
        build = RelationSource(ctx, ints(("a",), [(1,), (2,)]))
        probe = FailingOpen(ctx, Schema.of_ints("a", "b"))
        join = HashSemiJoin(probe, build, ("a",))
        with pytest.raises(Boom):
            join.open()
        assert ctx.memory.bytes_in_use == 0
        assert_reopenable(build)


class TestDivisionOperators:
    def test_hash_division_failed_dividend_open_releases_tables(self, ctx):
        divisor = RelationSource(ctx, ints(("c",), [(1,), (2,)]))
        dividend = FailingOpen(ctx, Schema.of_ints("s", "c"))
        division = HashDivision(dividend, divisor, early_output=True)
        with pytest.raises(Boom):
            division.open()
        # Divisor table and quotient table were both released.
        assert ctx.memory.bytes_in_use == 0
        assert_reopenable(divisor)

    def test_naive_division_failed_dividend_open_clears_divisor_list(self, ctx):
        divisor = RelationSource(ctx, ints(("c",), [(1,), (2,)]))
        dividend = FailingOpen(ctx, Schema.of_ints("s", "c"))
        division = NaiveDivision(dividend, divisor)
        with pytest.raises(Boom):
            division.open()
        assert division._divisor_list == []
        assert_reopenable(divisor)


class TestFailedOpenUnderInjectedFaults:
    """Failed opens under *real device faults*, not synthetic Booms.

    A failed ``open()`` leaves the operator CLOSED and ``close()`` is a
    silent no-op (the serving layer's unwind paths call it
    unconditionally), and ``_close`` is never reached -- so run files
    written before the fault must be reclaimed by ``_open`` itself.
    These tests inject write faults on the run device (tiny pages + a
    tiny buffer pool force eviction write-back during the append) and
    assert the device ends with zero live pages.
    """

    @staticmethod
    def _faulted_ctx(max_fires: int | None = None, device: str = "runs") -> ExecContext:
        from repro.faults import FaultInjector, FaultRule
        from repro.storage.config import StorageConfig

        ctx = ExecContext(
            config=StorageConfig(
                page_size=512,
                sort_run_page_size=256,
                buffer_size=4 * 512,
                sort_buffer_size=4 * 512,
            )
        )
        ctx.attach_fault_injector(
            FaultInjector(
                [
                    FaultRule(
                        "permanent", op="write", device=device, max_fires=max_fires
                    )
                ],
                seed=0,
            )
        )
        return ctx

    def test_sort_failed_spill_destroys_partial_runs(self):
        from repro.errors import DiskFaultError

        ctx = self._faulted_ctx()
        capacity = ctx.config.sort_run_capacity_records(
            Schema.of_ints("a").codec().record_size
        )
        rows = [(i,) for i in range(capacity * 3)]
        sort = ExternalSort(
            RelationSource(ctx, ints(("a",), rows)), key_names=("a",)
        )
        with pytest.raises(DiskFaultError):
            sort.open()
        sort.close()  # idempotent no-op after the failed attempt
        assert sort._runs == []
        assert ctx.run_disk.page_count == 0
        assert ctx.pool.fixed_page_count() == 0
        ctx.close()

    @pytest.mark.parametrize("hybrid", [False, True], ids=["spooled", "hybrid"])
    def test_partition_spool_fault_destroys_temp_files(self, hybrid):
        """A temp-device write fault while the dividend is spooled to
        its cluster files leaves no temp page allocated or fixed."""
        from repro.core.partitioned import PartitionedHashDivision
        from repro.errors import DiskFaultError

        ctx = self._faulted_ctx(device="temp")
        rows = [(q, d) for q in range(200) for d in range(3)]
        division = PartitionedHashDivision(
            RelationSource(ctx, ints(("q", "d"), rows)),
            RelationSource(ctx, ints(("d",), [(d,) for d in range(3)])),
            quotient_partitions=3,
            hybrid=hybrid,
        )
        with pytest.raises(DiskFaultError):
            division.open()
        division.close()  # idempotent no-op after the failed open
        assert ctx.temp_disk.page_count == 0
        assert ctx.pool.fixed_page_count() == 0
        ctx.close()

    def test_one_shot_fault_then_reopen_succeeds(self):
        """After a faulted open the operator is reopenable once the
        fault clears -- nothing about the failure is sticky."""
        from repro.errors import DiskFaultError

        ctx = self._faulted_ctx(max_fires=1)
        capacity = ctx.config.sort_run_capacity_records(
            Schema.of_ints("a", "b").codec().record_size
        )
        rows = [(i, i) for i in reversed(range(capacity * 3))]
        sort = ExternalSort(
            RelationSource(ctx, ints(("a", "b"), rows)), key_names=("a",)
        )
        with pytest.raises(DiskFaultError):
            sort.open()
        assert ctx.run_disk.page_count == 0
        # The rule is exhausted; the same operator opens cleanly now.
        sort.open()
        assert list(sort) == sorted(rows)
        sort.close()
        assert ctx.run_disk.page_count == 0
        ctx.close()
