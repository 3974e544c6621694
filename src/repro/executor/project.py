"""The projection operator.

``Project`` is a pure bag projection: it never eliminates duplicates.
Duplicate elimination is a separate physical decision -- during sorting
(:class:`~repro.executor.sort.ExternalSort` with ``distinct=True``) or
hashing -- exactly the distinction the paper draws when discussing which
division algorithms need duplicate-free inputs.
"""

from __future__ import annotations

from typing import Sequence

from repro.executor.iterator import QueryIterator
from repro.relalg.tuples import Row, identity, projector


class Project(QueryIterator):
    """π (bag semantics): reorder/drop attributes, keep every tuple."""

    def __init__(self, input_op: QueryIterator, names: Sequence[str]) -> None:
        super().__init__(input_op.ctx, input_op.schema.project(names))
        self.input_op = input_op
        self.names = tuple(names)
        self._extract = None

    def _open(self) -> None:
        # Build the projector before opening the input: a bad name list
        # must not leave the child open.
        self._extract = projector(self.input_op.schema, self.names)
        self.input_op.open()

    def _next_batch(self) -> list[Row]:
        assert self._extract is not None
        batch = self.input_op.next_batch()
        if self._extract is identity:
            return batch
        return list(map(self._extract, batch))

    def _close(self) -> None:
        self.input_op.close()
        self._extract = None

    def children(self) -> tuple[QueryIterator, ...]:
        return (self.input_op,)

    def describe(self) -> str:
        return f"Project({', '.join(self.names)})"
