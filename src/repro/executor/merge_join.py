"""Merge join and merge semi-join over sorted inputs.

"Merge join consists of a merging scan of both inputs, in which tuples
from the inner relation with equal key values are kept in a linked
list of tuples pinned in the buffer pool.  For semi-joins in which the
outer relation produces the result, no linked lists are used."
(Section 5.1.)  Both operators here require their inputs already sorted
on the join attributes -- composing with
:class:`~repro.executor.sort.ExternalSort` is the planner's job, as it
was in the paper's sort-based aggregation strategy.

Both operators join one outer batch per call and advance the inner
input row by row with ``next()``, as far as the batch's keys reach.
:class:`MergeSemiJoin` stops on the outer row that finds the inner
input ended and gives the rest of that batch back
(:meth:`~repro.executor.iterator.BufferedIterator.unread`), so it
charges the outer rows it looked at and no others.  Its outer input
must therefore be a :class:`~repro.executor.iterator.BufferedIterator`,
as every sort is.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

from repro.errors import ExecutionError
from repro.executor.iterator import BufferedIterator, QueryIterator
from repro.relalg.tuples import Row, projector


class MergeJoin(QueryIterator):
    """Join two key-sorted inputs on equally named attributes.

    Output schema: all outer attributes followed by the inner
    attributes not in the join key.  Inner tuples with equal keys are
    buffered (the paper's pinned linked list) so outer duplicates can
    re-join the group.
    """

    def __init__(
        self,
        outer: QueryIterator,
        inner: QueryIterator,
        join_names: Sequence[str],
    ) -> None:
        if outer.ctx is not inner.ctx:
            raise ExecutionError("join inputs must share one execution context")
        self.join_names = tuple(join_names)
        inner_rest = [n for n in inner.schema.names if n not in set(join_names)]
        schema = (
            outer.schema.concat(inner.schema.project(inner_rest))
            if inner_rest
            else outer.schema
        )
        super().__init__(outer.ctx, schema)
        self.outer = outer
        self.inner = inner
        self._outer_key = projector(outer.schema, self.join_names)
        self._inner_key = projector(inner.schema, self.join_names)
        self._inner_rest = (
            projector(inner.schema, inner_rest) if inner_rest else (lambda row: ())
        )
        self._inner_row: Row | None = None
        self._inner_done = False
        self._group_key: tuple | None = None
        self._group: list[tuple] = []

    def _open(self) -> None:
        self.outer.open()
        self.inner.open()
        self._inner_row = self.inner.next()
        self._inner_done = self._inner_row is None
        self._group_key = None
        self._group = []

    def _next_batch(self) -> list[Row]:
        """The join rows of the next outer batch, advancing the inner
        input as far as its keys reach; one Comp per outer row for its
        group test."""
        cpu = self.ctx.cpu
        while batch := self.outer.next_batch():
            rows: list[Row] = []
            for outer_row in batch:
                cpu.comparisons += 1
                key = self._outer_key(outer_row)
                if key != self._group_key:
                    self._load_group(key)
                rows.extend(outer_row + rest for rest in self._group)
            if rows:
                return rows
        return []

    def _load_group(self, key: tuple) -> None:
        """Advance the inner scan to ``key`` and buffer its group."""
        cpu = self.ctx.cpu
        self._group = []
        self._group_key = key
        while not self._inner_done:
            assert self._inner_row is not None
            inner_key = self._inner_key(self._inner_row)
            cpu.comparisons += 1
            if inner_key < key:
                self._inner_row = self.inner.next()
                self._inner_done = self._inner_row is None
                continue
            if inner_key == key:
                self._group.append(self._inner_rest(self._inner_row))
                self._inner_row = self.inner.next()
                self._inner_done = self._inner_row is None
                continue
            break

    def _close(self) -> None:
        self.outer.close()
        self.inner.close()
        self._group = []
        self._inner_row = None

    def children(self) -> tuple[QueryIterator, ...]:
        return (self.outer, self.inner)

    def describe(self) -> str:
        return f"MergeJoin(on={','.join(self.join_names)})"


class MergeSemiJoin(QueryIterator):
    """Semi-join of key-sorted inputs: outer tuples with >=1 inner match.

    The outer relation produces the result, so no inner group is
    buffered -- only the current inner key is tracked.  The operator
    finishes on the first outer row that finds the inner input ended.
    A batch filters one outer batch, so the outer input must be able to
    give rows back: a :class:`BufferedIterator`.
    """

    def __init__(
        self,
        outer: BufferedIterator,
        inner: QueryIterator,
        join_names: Sequence[str],
    ) -> None:
        if outer.ctx is not inner.ctx:
            raise ExecutionError("join inputs must share one execution context")
        if not isinstance(outer, BufferedIterator):
            raise ExecutionError(
                f"merge semi-join needs an outer input that can give rows back, "
                f"not {type(outer).__name__}"
            )
        super().__init__(outer.ctx, outer.schema)
        self.join_names = tuple(join_names)
        self.outer = outer
        self.inner = inner
        self._outer_key = projector(outer.schema, self.join_names)
        self._inner_key = projector(inner.schema, self.join_names)
        #: The inner input's current key; ``None`` once it has ended.
        self._current_inner: tuple | None = None
        self._finished = False

    def _open(self) -> None:
        self.outer.open()
        self.inner.open()
        self._finished = False
        self._current_inner = self._inner_key_of(self.inner.next())

    def _inner_key_of(self, row: Row | None) -> tuple | None:
        return None if row is None else self._inner_key(row)

    def _next_batch(self) -> list[Row]:
        while not self._finished:
            batch = self.outer.next_batch()
            if not batch:
                return []
            rows = self._filter(batch)
            if rows:
                return rows
        return []

    def _filter(self, batch: Sequence[Row]) -> list[Row]:
        """The rows of ``batch`` with an inner match, advancing the
        inner input as far as the batch's keys reach.

        Works one run of equal outer keys at a time (the batch is
        sorted on them, so ``bisect_right`` finds the run's end).  The
        run's first row advances the inner input, one Comp per inner
        key passed, then makes one not-less test and one equality test;
        every later row of the run makes those two tests against the
        same inner key, with the same outcome, so the run costs
        ``2 * length`` Comp on top of the advance.  On the row that
        finds the inner input ended, the operator finishes and gives
        the rest of the batch back to the outer input.
        """
        outer_key = self._outer_key
        current = self._current_inner
        matched: list[Row] = []
        comparisons = 0
        start, size = 0, len(batch)
        try:
            while start < size:
                key = outer_key(batch[start])
                end = bisect_right(batch, key, start, size, key=outer_key)
                while current is not None:
                    comparisons += 1
                    if current < key:
                        current = self._inner_key_of(self.inner.next())
                        continue
                    break
                if current is None:
                    self._finished = True
                    rest = size - start - 1
                    if rest:
                        self.outer.unread(rest)
                    break
                # The first row's equality test, two tests per later row.
                comparisons += 2 * (end - start) - 1
                if current == key:
                    matched.extend(batch[start:end])
                start = end
        finally:
            self.ctx.cpu.comparisons += comparisons
            self._current_inner = current
        return matched

    def _close(self) -> None:
        self.outer.close()
        self.inner.close()

    def children(self) -> tuple[QueryIterator, ...]:
        return (self.outer, self.inner)

    def describe(self) -> str:
        return f"MergeSemiJoin(on={','.join(self.join_names)})"
