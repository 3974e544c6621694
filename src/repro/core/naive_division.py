"""The naive sort-based division algorithm (Section 2.1, after Smith 1975).

The dividend is sorted on the quotient attributes (major) and divisor
attributes (minor); the divisor is sorted on all its attributes.  The
two sorted streams are then merge-scanned: the dividend is the outer
input, and for every candidate quotient group the divisor is walked in
step with the group's divisor-attribute values.  A group produces a
quotient tuple exactly when the walk reaches the end of the divisor
list -- "producing a quotient tuple each time the end of the divisor
list is reached" (Section 5.1).

Per the paper's implementation, the operator "first consumes the entire
divisor relation, building a linked list of divisor tuples fixed in the
buffer pool" -- here, a Python list -- and requires duplicate-free,
sorted inputs.  The plan factory
(:func:`repro.plan.physical.build_division_operator`, strategy
``"naive"``) puts the necessary sorts below the operator.

The merge scan takes the dividend a batch at a time and walks it until
a tuple completes a group: the first tuple of the next group, when the
group reached the end of the divisor list.  That group's quotient tuple
is returned at once, and the rest of the batch stays on the operator
for the next call, so output streams group by group whatever the batch
size.  The group state -- current quotient key, divisor-list position
and failed flag -- lives on the operator too, so a group may span
batches.  The walk charges the Comp of the row-at-a-time walk: one per
tuple for the group test, one more for the tuple that opens the next
group, and the divisor walk.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import DivisionError, ExecutionError
from repro.executor.iterator import QueryIterator
from repro.relalg.algebra import division_attribute_split
from repro.relalg.tuples import Row, projector


class NaiveDivision(QueryIterator):
    """Merge-scan division over *sorted, duplicate-free* inputs.

    Args:
        dividend: Sorted on (quotient attributes, divisor attributes).
        divisor: Sorted on all its attributes, duplicate-free.

    The sorted-input requirement is the algorithm's defining cost: the
    operator itself is a cheap single scan, but its inputs must be
    produced by full sorts.  Sortedness of the divisor is verified
    while it is consumed; dividend order is trusted (verifying it would
    double the comparison count the cost model attributes to the merge
    scan).
    """

    def __init__(self, dividend: QueryIterator, divisor: QueryIterator) -> None:
        if dividend.ctx is not divisor.ctx:
            raise ExecutionError("division inputs must share one execution context")
        quotient_names, divisor_names = division_attribute_split(dividend.schema, divisor.schema)
        super().__init__(dividend.ctx, dividend.schema.project(quotient_names))
        self.dividend = dividend
        self.divisor = divisor
        self.quotient_names = quotient_names
        self.divisor_names = divisor_names
        self._quotient_of = projector(dividend.schema, quotient_names)
        self._divisor_of = projector(dividend.schema, divisor_names)
        self._divisor_list: list[tuple] = []
        self._reset_scan()

    def _reset_scan(self) -> None:
        #: The current group's quotient key (``None`` between groups),
        #: its position in the divisor list, and whether a divisor
        #: tuple has already gone unmatched in it.
        self._group_key: Row | None = None
        self._index = 0
        self._failed = False
        self._done = False
        #: The rest of the dividend batch being walked.
        self._rows: Iterator[Row] = iter(())

    def _open(self) -> None:
        tracer = self.ctx.tracer
        with tracer.span("naive_division.load_divisor_list") as span:
            self.divisor.open()
            try:
                self._divisor_list = []
                previous: tuple | None = None
                for row in self.divisor:
                    value = tuple(row)
                    if previous is not None:
                        self.ctx.cpu.comparisons += 1
                        if value <= previous:
                            raise DivisionError(
                                "naive division requires a sorted, duplicate-free "
                                f"divisor; saw {value!r} after {previous!r}"
                            )
                    previous = value
                    self._divisor_list.append(value)
            finally:
                self.divisor.close()
            span.annotate(divisor_tuples=len(self._divisor_list))
        tracer.count(
            "repro_division_divisor_tuples_total",
            len(self._divisor_list),
            algorithm="naive",
        )
        try:
            self.dividend.open()
        except BaseException:
            # Leave the operator re-openable: a failed dividend open
            # must not keep the divisor list of the aborted attempt.
            self._divisor_list = []
            raise
        self._reset_scan()

    def _next_batch(self) -> list[Row]:
        while not self._done:
            quotient = self._walk()
            if quotient:
                return quotient
            rows = self.dividend.next_batch()
            if not rows:
                return self._end_scan()
            self._rows = iter(rows)
        return []

    def _walk(self) -> list[Row]:
        """Merge-scan the rest of the batch up to the first tuple that
        completes a group; returns that group's quotient tuple, or
        ``[]`` once the batch is used up."""
        quotient_of, divisor_of = self._quotient_of, self._divisor_of
        divisor_list = self._divisor_list
        divisor_len = len(divisor_list)
        group_key, index, failed = self._group_key, self._index, self._failed
        quotient: list[Row] = []
        comparisons = 0
        try:
            for row in self._rows:
                comparisons += 1  # does the tuple belong to this group?
                key = quotient_of(row)
                if key != group_key:
                    if group_key is not None:
                        if not failed and index == divisor_len:
                            quotient = [group_key]
                        # The tuple is tested again as the first of its group.
                        comparisons += 1
                    group_key, index, failed = key, 0, False
                value = divisor_of(row)
                while index < divisor_len:
                    comparisons += 1
                    if divisor_list[index] < value:
                        # divisor_list[index] found no match in this group.
                        failed = True
                        index += 1
                        continue
                    break
                if index < divisor_len and divisor_list[index] == value:
                    index += 1
                # else: the dividend tuple matches no divisor tuple
                # (e.g. a physics course in the paper's second example);
                # it is simply skipped.
                if quotient:
                    break
        finally:
            self.ctx.cpu.comparisons += comparisons
            self._group_key, self._index, self._failed = group_key, index, failed
        return quotient

    def _end_scan(self) -> list[Row]:
        """The dividend has ended: the open group's quotient tuple, if
        it completed the divisor list."""
        self._done = True
        group_key, self._group_key = self._group_key, None
        if group_key is None or self._failed or self._index != len(self._divisor_list):
            return []
        return [group_key]

    def _close(self) -> None:
        self.dividend.close()
        self._divisor_list = []
        self._reset_scan()
        self.ctx.tracer.count(
            "repro_division_quotient_tuples_total",
            self.rows_produced,
            algorithm="naive",
        )

    def children(self) -> tuple[QueryIterator, ...]:
        return (self.dividend, self.divisor)

    def describe(self) -> str:
        return f"NaiveDivision(÷{','.join(self.divisor_names)})"
