"""Aggregation operators: scalar count, sorted group count, hash group count.

Division by counting (Section 2.2) needs exactly three aggregation
pieces:

1. a *scalar aggregate* counting the divisor ("the courses offered by
   the university are counted using a scalar aggregate operator"),
2. an *aggregate function* counting dividend tuples per group, either
   sort-based (:class:`SortedGroupCount`, usually fused into
   :class:`~repro.executor.sort.ExternalSort` via a count reducer) or
   hash-based (:class:`HashGroupCount`),
3. a final selection comparing the two counts, expressed with
   :class:`~repro.executor.filter.Select`.
"""

from __future__ import annotations

from typing import Sequence

from repro.executor.hash_table import ChainedHashTable
from repro.executor.iterator import QueryIterator, drain
from repro.relalg.schema import Attribute, Schema
from repro.relalg.tuples import Row, projector

COUNT_COLUMN = "count"


def counted_schema(input_schema: Schema, group_names: Sequence[str]) -> Schema:
    """Schema of a group-count output: group attributes + ``count``."""
    return Schema(
        tuple(input_schema.project(group_names)) + (Attribute(COUNT_COLUMN),)
    )


class ScalarCount(QueryIterator):
    """COUNT(*) over the whole input: one output row ``(count,)``.

    The paper ignores the per-tuple increment cost, and so does this
    operator -- the input's own scan cost is the real price.
    """

    def __init__(self, input_op: QueryIterator) -> None:
        super().__init__(input_op.ctx, Schema.of_ints(COUNT_COLUMN))
        self.input_op = input_op
        self._emitted = False

    def _open(self) -> None:
        self.input_op.open()
        self._emitted = False

    def _next_batch(self) -> list[Row]:
        if self._emitted:
            return []
        self._emitted = True
        return [(sum(map(len, iter(self.input_op.next_batch, []))),)]

    def _close(self) -> None:
        self.input_op.close()

    def children(self) -> tuple[QueryIterator, ...]:
        return (self.input_op,)


class SortedGroupCount(QueryIterator):
    """COUNT(*) per group over an input sorted on the group attributes.

    One comparison per input tuple (current group vs. tuple), the cost
    model's ``|R| Comp`` for sort-based aggregation.
    """

    def __init__(self, input_op: QueryIterator, group_names: Sequence[str]) -> None:
        super().__init__(input_op.ctx, counted_schema(input_op.schema, group_names))
        self.input_op = input_op
        self.group_names = tuple(group_names)
        self._extract = None
        self._current: tuple | None = None
        self._count = 0
        self._exhausted = False

    def _open(self) -> None:
        self.input_op.open()
        self._extract = projector(self.input_op.schema, self.group_names)
        self._current = None
        self._count = 0
        self._exhausted = False

    def _next_batch(self) -> list[Row]:
        finished: list[Row] = []
        while not finished and not self._exhausted:
            rows = self.input_op.next_batch()
            finished = self._fold(rows) if rows else self._end()
        return finished

    def _fold(self, rows: Sequence[Row]) -> list[Row]:
        """Count ``rows`` into the open group; returns the groups they
        close, as (group attributes..., count)."""
        assert self._extract is not None
        extract = self._extract
        current, count, comparisons = self._current, self._count, 0
        finished: list[Row] = []
        for row in rows:
            group = extract(row)
            if current is None:
                current, count = group, 1
                continue
            comparisons += 1
            if group == current:
                count += 1
                continue
            finished.append(current + (count,))
            current, count = group, 1
        self._current, self._count = current, count
        self.ctx.cpu.comparisons += comparisons
        return finished

    def _end(self) -> list[Row]:
        """The input has ended: the open group, if any."""
        self._exhausted = True
        if self._current is not None and self._count > 0:
            return [self._current + (self._count,)]
        return []

    def _close(self) -> None:
        self.input_op.close()

    def children(self) -> tuple[QueryIterator, ...]:
        return (self.input_op,)

    def describe(self) -> str:
        return f"SortedGroupCount(by={','.join(self.group_names)})"


class HashGroupCount(QueryIterator):
    """COUNT(*) per group using an in-memory hash table.

    "Hash-based aggregate functions keep the tuples of the output
    relation in a main memory hash-table ... since the hash table
    contains only the aggregation output, it is not necessary that the
    aggregation input fit into main memory." (Section 2.2.2.)

    The table holds one entry per *group*, so memory is charged by
    group count, not input size.  This operator is stop-and-go: the
    entire input is consumed at open.
    """

    def __init__(
        self,
        input_op: QueryIterator,
        group_names: Sequence[str],
        expected_groups: int = 0,
    ) -> None:
        super().__init__(input_op.ctx, counted_schema(input_op.schema, group_names))
        self.input_op = input_op
        self.group_names = tuple(group_names)
        self.expected_groups = expected_groups
        self._table: ChainedHashTable | None = None
        self._output = None

    def _open(self) -> None:
        extract = projector(self.input_op.schema, self.group_names)
        group_bytes = self.input_op.schema.project(self.group_names).record_size
        self.input_op.open()
        input_open = True
        try:
            if self.expected_groups == 0:
                # No sizing hint: size the table from the actual input
                # (the pessimistic all-distinct case).
                first_pass = drain(self.input_op)
                self.input_op.close()
                input_open = False
                expected = max(1, len(first_pass))
                batches = [first_pass]
            else:
                expected = self.expected_groups
                # Batch by batch: each batch is counted before the next
                # is pulled, so inserts and page fixes interleave as
                # they would row by row.
                batches = iter(self.input_op.next_batch, [])
            self._table = ChainedHashTable(
                self.ctx.cpu,
                self.ctx.memory,
                bucket_count=ChainedHashTable.buckets_for(expected),
                entry_bytes=group_bytes + 8,
                tag="hash-aggregate",
                tracer=self.ctx.tracer,
            )
            find_or_insert_many = self._table.find_or_insert_many
            for batch in batches:
                counters, _ = find_or_insert_many(list(map(extract, batch)), _new_counter)
                for counter in counters:
                    counter[0] += 1
            if input_open:
                self.input_op.close()
                input_open = False
        except BaseException:
            # A failed open (overflow mid-aggregation, a child error)
            # must not leave the input open or the charged table
            # allocated -- the operator stays re-openable.
            if self._table is not None:
                self._table.free()
                self._table = None
            if input_open:
                try:
                    self.input_op.close()
                except Exception:  # noqa: BLE001 - the original error wins
                    pass
            raise
        self._output = (
            group + (counter[0],) for group, counter in self._table.items()
        )

    def _next_batch(self) -> list[Row]:
        assert self._output is not None
        return list(self._output)

    def _close(self) -> None:
        if self._table is not None:
            self._table.free()
            self._table = None
        self._output = None

    def children(self) -> tuple[QueryIterator, ...]:
        return (self.input_op,)

    def describe(self) -> str:
        return f"HashGroupCount(by={','.join(self.group_names)})"


def _new_counter() -> list[int]:
    return [0]
