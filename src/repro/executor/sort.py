"""External merge sort with early aggregation and duplicate elimination.

The paper's sort (Sections 2.2.1 and 5.1):

* run generation quick-sorts buffer-sized chunks; runs go to 1 KB-page
  temp files "to allow high fan-in",
* "aggregation and duplicate elimination [happen] as early as
  possible, i.e., no intermediate run contains duplicate sort keys",
* opening the operator "prepares sorted runs and merges them until
  only one merge step is left.  The final merge is performed on demand
  by the next function" (footnote 2) -- so sort is a stop-and-go
  operator on open, streaming on next.

CPU metering follows the paper's own model: run generation charges the
quicksort bound ``2·n·log2(n)`` comparisons per run, merging charges
``log2(fan-in)`` comparisons per tuple popped, and each
aggregate/duplicate collapse charges one comparison per adjacent pair
inspected.

Aggregation during sorting is expressed with a :class:`Reducer`: every
input row is first mapped through ``init`` (e.g. ``(sid, cid) ->
(sid, 1)``) and rows with equal sort keys are folded with ``combine``
(e.g. add the counts).  ``distinct=True`` is the special case "keep the
first of equal rows".
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

from repro.errors import ExecutionError
from repro.executor.iterator import QueryIterator
from repro.relalg.schema import Schema
from repro.relalg.tuples import Row, projector
from repro.storage.heapfile import HeapFile


@dataclass(frozen=True)
class Reducer:
    """Fold rows with equal sort keys into one row.

    Attributes:
        output_schema: Schema of transformed rows (``init`` output).
        init: Map an input row to its one-row accumulator.
        combine: Fold two accumulators with equal sort keys.
    """

    output_schema: Schema
    init: Callable[[Row], Row]
    combine: Callable[[Row, Row], Row]


def count_reducer(input_schema: Schema, group_names: Sequence[str]) -> Reducer:
    """Reducer computing ``COUNT(*)`` per group during sorting.

    Output schema is the group attributes followed by a ``count``
    column -- the paper's "aggregate function" shape for division by
    counting.
    """
    from repro.relalg.schema import Attribute

    output_schema = Schema(
        tuple(input_schema.project(group_names)) + (Attribute("count"),)
    )
    extract = projector(input_schema, group_names)

    def init(row: Row) -> Row:
        return extract(row) + (1,)

    def combine(a: Row, b: Row) -> Row:
        return a[:-1] + (a[-1] + b[-1],)

    return Reducer(output_schema, init, combine)


class ExternalSort(QueryIterator):
    """Sort (and optionally aggregate) the input on ``key_names``.

    Args:
        input_op: Producer of the rows to sort.
        key_names: Sort key attributes, major first.  They must exist
            in the (possibly reduced) output schema.
        distinct: Eliminate rows with duplicate *full-row* value.  When
            the sort key covers the whole row this happens during run
            generation; otherwise the first row of each key group wins
            only if rows are full duplicates, so callers wanting
            key-level collapse should pass a :class:`Reducer`.
        reducer: Early-aggregation specification; mutually exclusive
            with ``distinct``.
    """

    def __init__(
        self,
        input_op: QueryIterator,
        key_names: Sequence[str],
        distinct: bool = False,
        reducer: Reducer | None = None,
    ) -> None:
        if distinct and reducer is not None:
            raise ExecutionError("pass either distinct=True or a reducer, not both")
        schema = reducer.output_schema if reducer is not None else input_op.schema
        super().__init__(input_op.ctx, schema)
        self.input_op = input_op
        self.key_names = tuple(key_names)
        self.distinct = distinct
        self.reducer = reducer
        self._codec = schema.codec()
        self._key = projector(schema, self.key_names)
        self._runs: list[HeapFile] = []
        self._output: Iterator[Row] | None = None
        self.merge_passes_performed = 0
        #: Initial runs spilled to run files during run generation
        #: (0 for an in-memory sort); surfaced as
        #: ``repro_sort_spill_runs_total``.
        self.runs_spilled = 0
        #: Length in rows of each initial run, in spill order; surfaced
        #: as the ``repro_sort_run_length_rows`` histogram.
        self.run_lengths: list[int] = []

    # -- open: run generation + all but the final merge ------------------

    def _open(self) -> None:
        self.merge_passes_performed = 0
        self.runs_spilled = 0
        self.run_lengths = []
        capacity = self.ctx.config.sort_run_capacity_records(self._codec.record_size)
        self.input_op.open()
        try:
            try:
                in_memory = self._generate_runs(capacity)
            finally:
                self.input_op.close()
            if in_memory is not None:
                self._output = iter(in_memory)
                return
            fan_in = self.ctx.config.sort_fan_in
            while len(self._runs) > fan_in:
                self._runs = self._merge_pass(self._runs, fan_in)
                self.merge_passes_performed += 1
            self._output = self._merge_streams(
                [self._run_rows(run) for run in self._runs]
            )
        except BaseException:
            # A failed open never reaches _close (the state machine
            # stays CLOSED), so spilled run files must be destroyed
            # here or they leak on the run device.
            for run in self._runs:
                run.destroy()
            self._runs = []
            raise

    def _next(self) -> Optional[Row]:
        assert self._output is not None
        return next(self._output, None)

    def _close(self) -> None:
        self._output = None
        for run in self._runs:
            run.destroy()
        self._runs = []
        # A re-open must re-pull from the input.

    def children(self) -> tuple[QueryIterator, ...]:
        return (self.input_op,)

    def describe(self) -> str:
        mode = "distinct" if self.distinct else ("reduce" if self.reducer else "plain")
        return f"ExternalSort(key={','.join(self.key_names)}, {mode})"

    # -- internals -----------------------------------------------------------

    def _transform(self, row: Row) -> Row:
        return self.reducer.init(row) if self.reducer is not None else row

    def _sort_chunk(self, chunk: list[Row]) -> list[Row]:
        """Quicksort one chunk and collapse equal keys.

        Charges the paper's quicksort bound, then one comparison per
        adjacent pair inspected during the collapse.
        """
        n = len(chunk)
        if n > 1:
            self.ctx.cpu.comparisons += int(2 * n * math.log2(n))
        chunk.sort(key=self._key)
        return self._collapse(chunk)

    def _collapse(self, sorted_rows: list[Row]) -> list[Row]:
        if not (self.distinct or self.reducer) or not sorted_rows:
            return sorted_rows
        out: list[Row] = [sorted_rows[0]]
        key = self._key
        cpu = self.ctx.cpu
        for row in sorted_rows[1:]:
            cpu.comparisons += 1
            if key(row) == key(out[-1]):
                if self.reducer is not None:
                    out[-1] = self.reducer.combine(out[-1], row)
                elif row != out[-1]:
                    # distinct removes only full duplicates; a row that
                    # shares the key but differs elsewhere is kept.
                    out.append(row)
            else:
                out.append(row)
        return out

    def _generate_runs(self, capacity: int) -> list[Row] | None:
        """Quicksort buffer-sized chunks into runs.

        Returns the sorted rows directly when the whole input fits in
        the sort buffer (no run files, no I/O); otherwise fills
        ``self._runs`` and returns ``None``.
        """
        chunk: list[Row] = []
        while True:
            row = self.input_op.next()
            if row is None:
                break
            chunk.append(self._transform(row))
            if len(chunk) >= capacity:
                self._write_run(self._sort_chunk(chunk))
                chunk = []
        if not self._runs:
            # Entire input fit in the sort buffer: no run files, no I/O.
            return self._sort_chunk(chunk)
        if chunk:
            self._write_run(self._sort_chunk(chunk))
        return None

    def _write_run(self, rows: list[Row]) -> None:
        run = self.ctx.temp_file("runs")
        # Register the run *before* writing it: if the append faults,
        # _open's failure handler finds (and destroys) the partial run
        # instead of leaking its pages.
        self._runs.append(run)
        encode = self._codec.encode
        run.append_many(encode(row) for row in rows)
        self.runs_spilled += 1
        self.run_lengths.append(len(rows))
        tracer = self.ctx.tracer
        if tracer.enabled:
            tracer.count("repro_sort_spill_runs_total")
            tracer.observe("repro_sort_run_length_rows", len(rows))

    def _run_rows(self, run: HeapFile) -> Iterator[Row]:
        return run.scan_tuples(self._codec)

    def _merge_streams(self, streams: list[Iterator[Row]]) -> Iterator[Row]:
        """K-way merge with collapse, charging log2(k) Comp per pop."""
        key = self._key
        cpu = self.ctx.cpu
        per_pop = max(1, math.ceil(math.log2(max(2, len(streams)))))
        merged = heapq.merge(*streams, key=key)

        def metered() -> Iterator[Row]:
            pending: Row | None = None
            for row in merged:
                cpu.comparisons += per_pop
                if pending is None:
                    pending = row
                    continue
                if self.distinct or self.reducer:
                    cpu.comparisons += 1
                    if key(row) == key(pending):
                        if self.reducer is not None:
                            pending = self.reducer.combine(pending, row)
                        elif row != pending:
                            yield pending
                            pending = row
                        continue
                yield pending
                pending = row
            if pending is not None:
                yield pending

        return metered()

    def _merge_pass(self, runs: list[HeapFile], fan_in: int) -> list[HeapFile]:
        """Merge groups of ``fan_in`` runs into longer runs."""
        next_runs: list[HeapFile] = []
        try:
            for start in range(0, len(runs), fan_in):
                group = runs[start : start + fan_in]
                if len(group) == 1:
                    next_runs.append(group[0])
                    continue
                merged = self._merge_streams([self._run_rows(run) for run in group])
                out = self.ctx.temp_file("runs")
                # Register before writing: a faulted append must leave the
                # partial output run reachable for cleanup below.
                next_runs.append(out)
                # Record at a time: pulling a merged row fixes input
                # run pages, and batching the output would change the
                # order pages are fixed in, so the pool's evictions.
                encode, append = self._codec.encode, out.append
                for row in merged:
                    append(encode(row))
                for run in group:
                    run.destroy()
        except BaseException:
            # The caller only replaces self._runs on success, so output
            # runs created here are invisible to _open's failure handler
            # and must be reclaimed now.  destroy() is idempotent, so
            # pass-through runs shared with self._runs are safe to hit
            # twice.
            for run in next_runs:
                run.destroy()
            raise
        return next_runs
