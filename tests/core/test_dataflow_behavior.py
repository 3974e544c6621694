"""Dataflow behaviour claims from Section 3.3.

Observation 1: hash-division "does not require a stop-and-go operator
on its input ... it can smoothly receive its inputs from a dataflow
query processing system."  Observation 2 (with early output): it can
also *produce* incrementally.  The naive algorithm streams its output
groups; the sort operator is stop-and-go on open but streams from its
final merge (footnote 2).
"""

from repro.core.hash_division import HashDivision
from repro.core.naive_division import NaiveDivision
from repro.executor.iterator import ExecContext, QueryIterator, drain
from repro.executor.scan import RelationSource
from repro.executor.sort import ExternalSort
from repro.relalg.relation import Relation


class CountingSource(QueryIterator):
    """A source that hands out one tuple per batch and counts how many
    tuples have been pulled."""

    def __init__(self, ctx, relation):
        super().__init__(ctx, relation.schema)
        self.relation = relation
        self.pulled = 0
        self._iter = None

    def _open(self):
        self._iter = iter(self.relation)

    def _next_batch(self):
        row = next(self._iter, None)
        if row is None:
            return []
        self.pulled += 1
        return [row]

    def _close(self):
        self._iter = None


def division_inputs(ctx):
    rows = [(q, d) for q in range(100) for d in range(4)]
    dividend = CountingSource(ctx, Relation.of_ints(("q", "d"), rows))
    divisor = RelationSource(ctx, Relation.of_ints(("d",), [(d,) for d in range(4)]))
    return dividend, divisor, len(rows)


class TestConsumerBehaviour:
    def test_hash_division_consumes_streamed_input(self, ctx):
        """No sort, no materialization: the dividend flows straight
        into the operator, one tuple at a time."""
        dividend, divisor, total = division_inputs(ctx)
        plan = HashDivision(dividend, divisor)
        plan.open()
        assert dividend.pulled == total  # consumed exactly once, fully
        assert ctx.io_stats.totals().transfers == 0  # nothing spooled
        plan.close()

    def test_early_output_pulls_lazily(self, ctx):
        dividend, divisor, total = division_inputs(ctx)
        plan = HashDivision(dividend, divisor, early_output=True)
        plan.open()
        assert dividend.pulled == 0  # nothing consumed yet
        first = plan.next()
        assert first is not None
        assert dividend.pulled < total  # produced before input exhausted
        plan.close()

    def test_early_output_takes_a_whole_batch_a_tuple_at_a_time(self, ctx):
        """A producer that hands out every tuple in one batch: the first
        quotient tuple still leaves when the tuple completing it arrives,
        not after the batch."""
        rows = [(q, d) for q in range(100) for d in range(4)]
        dividend = RelationSource(ctx, Relation.of_ints(("q", "d"), rows))
        divisor = RelationSource(ctx, Relation.of_ints(("d",), [(d,) for d in range(4)]))
        plan = HashDivision(dividend, divisor, early_output=True)
        plan.open()
        assert plan.next() == (0,)
        assert dividend.rows_produced == 4
        plan.close()


class TestProducerBehaviour:
    def test_naive_division_streams_output_groups(self, ctx):
        """The merge scan emits each qualifying group as soon as it
        completes -- it never buffers the quotient."""
        rows = sorted((q, d) for q in range(100) for d in range(4))
        dividend = CountingSource(ctx, Relation.of_ints(("q", "d"), rows))
        divisor = RelationSource(
            ctx, Relation.of_ints(("d",), [(d,) for d in range(4)])
        )
        plan = NaiveDivision(dividend, divisor)
        plan.open()
        first = plan.next()
        assert first == (0,)
        # Only the first group (plus one lookahead tuple) was pulled.
        assert dividend.pulled <= 4 + 1
        plan.close()

    def test_naive_division_streams_groups_of_a_whole_batch(self):
        """A producer that hands out all 400 tuples in one batch: the
        first quotient tuple leaves once the tuple completing its group
        is walked, with the Comp of the five tuples a one-tuple-per-batch
        source lets the walk pull."""
        rows = sorted((q, d) for q in range(100) for d in range(4))
        divisor = Relation.of_ints(("d",), [(d,) for d in range(4)])
        charged, pulled = [], []
        for source in (RelationSource, CountingSource):
            ctx = ExecContext()
            dividend = source(ctx, Relation.of_ints(("q", "d"), rows))
            plan = NaiveDivision(dividend, RelationSource(ctx, divisor))
            plan.open()
            before = ctx.cpu.comparisons
            assert plan.next_batch() == [(0,)]
            charged.append(ctx.cpu.comparisons - before)
            pulled.append(dividend.rows_produced)
            assert plan.next() == (1,)
            assert len(drain(plan)) == 98
            plan.close()
        assert pulled == [400, 5]
        # Two per tuple (group test, divisor step), one more to open group 1.
        assert charged == [4 * 2 + 3] * 2

    def test_sort_final_merge_streams(self):
        """Footnote 2: runs are prepared at open; the final merge is
        performed on demand by next()."""
        from repro.executor.iterator import ExecContext
        from repro.storage.config import StorageConfig

        config = StorageConfig(
            page_size=8192,
            sort_run_page_size=1024,
            buffer_size=64 * 1024,
            memory_limit=256 * 1024,
            sort_buffer_size=16 * 16,
        )
        ctx = ExecContext(config=config)
        rows = [(i * 17 % 101, i) for i in range(400)]
        plan = ExternalSort(
            RelationSource(ctx, Relation.of_ints(("k", "v"), rows)), ["k", "v"]
        )
        plan.open()
        reads_after_open = ctx.io_stats.counters("runs").reads
        first = plan.next()
        assert first == min(rows)
        # next() read from the runs (the on-demand final merge) --
        # the open() did not pre-drain them into memory.
        assert ctx.io_stats.counters("runs").reads >= reads_after_open
        plan.close()
