"""The selection operator."""

from __future__ import annotations

from repro.executor.iterator import QueryIterator
from repro.relalg.predicates import Predicate
from repro.relalg.tuples import Row


class Select(QueryIterator):
    """σ: pass through the input tuples satisfying a predicate.

    Each evaluated tuple is charged one comparison -- predicate
    evaluation against a constant is the same unit of work the cost
    model's ``Comp`` stands for.
    """

    def __init__(self, input_op: QueryIterator, predicate: Predicate) -> None:
        super().__init__(input_op.ctx, input_op.schema)
        self.input_op = input_op
        self.predicate = predicate
        self._test = None

    def _open(self) -> None:
        # Compile before opening the input: a predicate that fails to
        # compile must not leave the child open.
        self._test = self.predicate.compile(self.schema)
        self.input_op.open()

    def _next_batch(self) -> list[Row]:
        assert self._test is not None
        cpu, test = self.ctx.cpu, self._test
        while batch := self.input_op.next_batch():
            cpu.comparisons += len(batch)
            rows = [row for row in batch if test(row)]
            if rows:
                return rows
        return []

    def _close(self) -> None:
        self.input_op.close()
        self._test = None

    def children(self) -> tuple[QueryIterator, ...]:
        return (self.input_op,)

    def describe(self) -> str:
        return f"Select({self.predicate!r})"
