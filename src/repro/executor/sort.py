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

Merging works a page at a time (:class:`_RunMerge`).  Each input run
has one decoded page in memory.  The page whose last key is smallest
(lowest run index on ties) runs dry first, so every row that sorts no
later than that last row can be merged without fixing a page: that is
one *stretch*.  A stable sort of the runs' page slices, taken in run
order, orders it, so equal keys fall in run order as in a heap merge.
The stretch's last output group is held back because the next stretch
may extend it, and the next page is fixed only when that group is
asked for -- on the same ``next()`` call as a row-by-row heap merge
with one row of lookahead.  Each output row carries the merge Comp that
such a heap merge charges on the call returning it, charged when the
row is handed out, so a consumer that stops early pays what it would
row by row.  The final merge hands out one stretch per
:meth:`~repro.executor.iterator.QueryIterator.next_batch`; a merge pass
appends one stretch at a time to its output run.

Aggregation during sorting is a COUNT(*) per group, expressed with a
:class:`Reducer`.  Run generation maps each input row to its group key
(e.g. ``(sid, cid) -> (sid,)``) with one C-level ``map`` per batch,
sorts the keys and turns each run of equal keys into one row
``(sid, count)`` from the run's length (``itertools.groupby``), with
the Comp of an adjacent-pair collapse.  Merging folds equal keys with
``combine`` (add the counts).  ``distinct=True`` is the special case
"keep the first of equal rows".

Run generation sorts on scalars where the key's types allow it: a key
of ``INT64`` and ``STRING`` attributes is sorted with one stable
``itemgetter`` pass per attribute, last attribute first, which orders
rows as one sort on the key tuple does, without a tuple per row or a
tuple comparison per pair; a counting sort on one such attribute sorts
bare values instead of 1-tuples.  A ``FLOAT64`` attribute keeps the
tuple key, whose identity-first equality groups one NaN object with
itself.  The merge keeps the key tuple too: its input is a few sorted
slices, which one sort merges faster than per-attribute passes
re-sort.  Only the order and the charged Comp matter to the output,
and neither depends on the keys sorted.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import groupby, islice
from operator import itemgetter
from typing import Callable, Iterator, Sequence

from repro.errors import ExecutionError
from repro.executor.iterator import BufferedIterator, QueryIterator
from repro.relalg.schema import DataType, Schema
from repro.relalg.tuples import Row, projector
from repro.storage.heapfile import HeapFile


@dataclass(frozen=True)
class Reducer:
    """COUNT(*) per group, folded into the sort.

    Attributes:
        output_schema: Schema of the output rows: the group attributes
            followed by ``count``.
        group_names: The group attributes, which are also the sort key.
        group: Map an input row to its group key.
        combine: Fold two output rows with equal group keys.
    """

    output_schema: Schema
    group_names: tuple[str, ...]
    group: Callable[[Row], tuple]
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

    def combine(a: Row, b: Row) -> Row:
        return a[:-1] + (a[-1] + b[-1],)

    return Reducer(
        output_schema, tuple(group_names), projector(input_schema, group_names), combine
    )


def _sort_key(schema: Schema, names: Sequence[str]) -> Callable[[Row], object] | None:
    """The cheapest sort key that orders and groups rows as
    ``projector(schema, names)`` does, for ``list.sort``, ``bisect``
    and equal-key tests.

    ``None`` (compare whole rows) when the key is the whole row, and
    ``itemgetter`` for one attribute: a scalar orders and compares as
    its 1-tuple does.  A ``FLOAT64`` attribute keeps its 1-tuple, since
    ``(nan,) == (nan,)`` holds for one NaN object but ``nan == nan``
    does not, and equal keys must still group as before.
    """
    positions = schema.positions_of(names)
    if positions == tuple(range(len(schema))):
        return None
    if len(positions) == 1 and schema[positions[0]].dtype is not DataType.FLOAT64:
        return itemgetter(positions[0])
    return projector(schema, names)


def _scalar_passes(schema: Schema, names: Sequence[str]) -> tuple[itemgetter, ...] | None:
    """One ``itemgetter`` per key attribute, last attribute first: stable
    ``list.sort`` passes with them order rows as one sort on
    ``projector(schema, names)`` does.  ``None`` when an attribute is
    ``FLOAT64`` (see :func:`_sort_key`)."""
    positions = schema.positions_of(names)
    if any(schema[position].dtype is DataType.FLOAT64 for position in positions):
        return None
    return tuple(map(itemgetter, reversed(positions)))


class ExternalSort(BufferedIterator):
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
        if reducer is not None and tuple(key_names) != reducer.group_names:
            raise ExecutionError(
                f"a counting sort sorts on its group attributes {reducer.group_names}, "
                f"not {tuple(key_names)}"
            )
        schema = reducer.output_schema if reducer is not None else input_op.schema
        super().__init__(input_op.ctx, schema)
        self.input_op = input_op
        self.key_names = tuple(key_names)
        self.distinct = distinct
        self.reducer = reducer
        self._codec = schema.codec()
        self._key = _sort_key(schema, self.key_names)
        #: Run generation's sort passes (see :func:`_scalar_passes`).
        self._passes = _scalar_passes(schema, self.key_names)
        #: What a counting sort's run generation sorts: each input row's
        #: group key, or its bare value when the group is one non-float
        #: attribute (``_bare_groups``; the run rows are ``(value, count)``).
        self._group: Callable[[Row], object] | None = None
        self._bare_groups = False
        if reducer is not None:
            group_passes = _scalar_passes(input_op.schema, reducer.group_names)
            self._bare_groups = group_passes is not None and len(group_passes) == 1
            self._group = group_passes[0] if self._bare_groups else reducer.group
        self._runs: list[HeapFile] = []
        self._merge: _RunMerge | None = None
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
                self._merge = None
                self._set_buffer(in_memory)
                return
            fan_in = self.ctx.config.sort_fan_in
            while len(self._runs) > fan_in:
                self._runs = self._merge_pass(self._runs, fan_in)
                self.merge_passes_performed += 1
            self._merge = _RunMerge(self, self._runs)
            self._set_buffer([])
        except BaseException:
            # A failed open never reaches _close (the state machine
            # stays CLOSED), so spilled run files must be destroyed
            # here or they leak on the run device.
            for run in self._runs:
                run.destroy()
            self._runs = []
            raise

    def _refill(self) -> bool:
        if self._merge is None:
            return False
        rows, charges = self._merge.stretch()
        self._set_buffer(rows, charges)
        return bool(rows)

    def _close(self) -> None:
        self._merge = None
        super()._close()
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

    def _sort_chunk(self, chunk: list[Row]) -> list[Row]:
        """Quicksort one chunk and collapse equal keys.

        Charges the paper's quicksort bound, then one comparison per
        adjacent pair inspected during the collapse.  A counting sort's
        chunk holds group keys: sorted, each run of equal keys becomes
        one output row carrying the run's length.
        """
        n = len(chunk)
        if n > 1:
            self.ctx.cpu.comparisons += int(2 * n * math.log2(n))
        if self.reducer is not None:
            chunk.sort()
            self.ctx.cpu.comparisons += max(0, n - 1)
            if self._bare_groups:
                return [(key, len(list(run))) for key, run in groupby(chunk)]
            return [key + (len(list(run)),) for key, run in groupby(chunk)]
        if self._passes is None:
            chunk.sort(key=self._key)
        else:
            for key in self._passes:
                chunk.sort(key=key)
        return self._collapse(chunk)

    def _collapse(self, sorted_rows: list[Row]) -> list[Row]:
        """Drop full duplicates from ``sorted_rows`` if ``distinct``."""
        if not self.distinct or not sorted_rows:
            return sorted_rows
        out: list[Row] = [sorted_rows[0]]
        key = self._key
        keys = iter(sorted_rows if key is None else map(key, sorted_rows))
        last_key = next(keys)
        self.ctx.cpu.comparisons += len(sorted_rows) - 1
        for row, row_key in zip(islice(sorted_rows, 1, None), keys):
            if row_key == last_key:
                if row != out[-1]:
                    # distinct removes only full duplicates; a row that
                    # shares the key but differs elsewhere is kept.
                    out.append(row)
            else:
                out.append(row)
                last_key = row_key
        return out

    def _generate_runs(self, capacity: int) -> list[Row] | None:
        """Quicksort buffer-sized chunks into runs.

        Returns the sorted rows directly when the whole input fits in
        the sort buffer (no run files, no I/O); otherwise fills
        ``self._runs`` and returns ``None``.
        """
        chunk: list[Row] = []
        group = self._group
        for batch in iter(self.input_op.next_batch, []):
            if group is not None:
                batch = list(map(group, batch))
            # Write a run after exactly ``capacity`` rows, as pulling
            # row by row would, before the rest of the batch goes on.
            start = 0
            while len(chunk) + len(batch) - start >= capacity:
                end = start + capacity - len(chunk)
                chunk.extend(batch[start:end])
                self._write_run(self._sort_chunk(chunk))
                chunk, start = [], end
            chunk.extend(batch[start:] if start else batch)
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
        run.append_rows(rows, self._codec)
        self.runs_spilled += 1
        self.run_lengths.append(len(rows))
        tracer = self.ctx.tracer
        if tracer.enabled:
            tracer.count("repro_sort_spill_runs_total")
            tracer.observe("repro_sort_run_length_rows", len(rows))

    def _merge_pass(self, runs: list[HeapFile], fan_in: int) -> list[HeapFile]:
        """Merge groups of ``fan_in`` runs into longer runs."""
        next_runs: list[HeapFile] = []
        try:
            for start in range(0, len(runs), fan_in):
                group = runs[start : start + fan_in]
                if len(group) == 1:
                    next_runs.append(group[0])
                    continue
                merge = _RunMerge(self, group)
                out = self.ctx.temp_file("runs")
                # Register before writing: a faulted append must leave the
                # partial output run reachable for cleanup below.
                next_runs.append(out)
                # A stretch fixes no input page, so appending it at once
                # fixes pages in the order appending row by row would.
                codec, cpu = self._codec, self.ctx.cpu
                while True:
                    rows, charges = merge.stretch()
                    if not rows:
                        break
                    cpu.comparisons += sum(charges)
                    out.append_rows(rows, codec)
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


class _RunMerge:
    """Page-exact k-way merge of sorted runs, a stretch at a time.

    Reads each run through :meth:`HeapFile.scan_pages`.  A stretch ends
    at the last row of the page that runs dry first; see the module
    docstring.  Each output row carries the Comp that a heap merge with
    one row of lookahead charges on the call that returns it:
    ``log2(k)`` per row popped and, when the sort collapses (distinct or
    reducer), one per adjacent pair.
    """

    def __init__(self, sort: ExternalSort, runs: list[HeapFile]) -> None:
        self._key = sort._key
        self._reducer = sort.reducer
        self._collapses = sort.distinct or sort.reducer is not None
        self._runs = runs
        self._codec = sort._codec
        self._per_pop = max(1, math.ceil(math.log2(max(2, len(runs)))))
        #: One cursor per run with rows left, in run order; ``None``
        #: until the first stretch fixes the first pages.
        self._heads: list[_RunCursor] | None = None
        #: Index into ``_heads`` of the page the last stretch emptied.
        self._dry: int | None = None
        #: The held-back output group, and how many rows it folds.
        self._pending: Row | None = None
        self._pending_rows = 0
        #: Comp owed to the next row handed out: the first call of a
        #: heap merge with lookahead pops one row more than it returns.
        self._owed = self._per_pop

    def stretch(self) -> tuple[list[Row], list[int]]:
        """The next output rows up to the next page fix, with the Comp
        charge of each; empty lists once the merge is done."""
        out: list[Row] = []
        while not out:
            heads = self._heads
            if heads is None:
                cursors = (_RunCursor(run.scan_pages(self._codec)) for run in self._runs)
                heads = self._heads = [cursor for cursor in cursors if cursor.next_page()]
            elif self._dry is not None:
                if not heads[self._dry].next_page():
                    del heads[self._dry]
                self._dry = None
            if not heads:
                if self._pending is None:
                    return [], []
                # The last call pops nothing past its group.
                per_row = self._per_pop + self._collapses
                charge = self._owed + per_row * (self._pending_rows - 1)
                out, self._pending = [self._pending], None
                return out, [charge]
            key = self._key
            lasts = [head.rows[-1] for head in heads]
            if key is not None:
                lasts = list(map(key, lasts))
            # min() keeps the first of equal keys: the lowest run index.
            dry = min(range(len(heads)), key=lasts.__getitem__)
            last = lasts[dry]
            merged: list[Row] = []
            for index, head in enumerate(heads):
                rows, start = head.rows, head.start
                if index == dry:
                    end = len(rows)
                elif index < dry:
                    end = bisect_right(rows, last, start, key=key)
                else:
                    end = bisect_left(rows, last, start, key=key)
                merged.extend(rows[start:end])
                head.start = end
            self._dry = dry
            if len(heads) > 1:
                merged.sort(key=key)  # stable: equal keys stay in run order
            out, charges = self._collapse(merged)
        return out, charges

    def _collapse(self, merged: list[Row]) -> tuple[list[Row], list[int]]:
        """Fold ``merged`` into the held-back group; returns the groups
        it completes and their charges, and holds back the last one."""
        per_pop = self._per_pop
        pending, folded = self._pending, self._pending_rows
        out: list[Row] = []
        charges: list[int] = []
        if not self._collapses:
            if pending is not None:
                out.append(pending)
            out.extend(merged[:-1])
            charges = [per_pop] * len(out)
            pending, folded = merged[-1], 1
        else:
            key, reducer, per_row = self._key, self._reducer, per_pop + 1
            pending_key = pending if key is None or pending is None else key(pending)
            for row, row_key in zip(merged, merged if key is None else map(key, merged)):
                if pending is None:
                    pending, pending_key, folded = row, row_key, 1
                    continue
                if row_key == pending_key:
                    if reducer is not None:
                        pending = reducer.combine(pending, row)
                        folded += 1
                        continue
                    if row == pending:
                        folded += 1
                        continue
                out.append(pending)
                charges.append(per_row * folded)
                pending, pending_key, folded = row, row_key, 1
        if charges:
            charges[0] += self._owed
            self._owed = 0
        self._pending, self._pending_rows = pending, folded
        return out, charges


class _RunCursor:
    """One run's decoded page and the position of its next row."""

    __slots__ = ("rows", "start", "pages")

    def __init__(self, pages: Iterator[list[Row]]) -> None:
        self.rows: list[Row] = []
        self.start = 0
        self.pages = pages

    def next_page(self) -> bool:
        """Load the run's next non-empty page (fixing it); ``False``
        once the run is exhausted."""
        for rows in self.pages:
            if rows:
                self.rows, self.start = rows, 0
                return True
        return False
