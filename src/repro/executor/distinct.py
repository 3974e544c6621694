"""Hash-based duplicate elimination.

The paper is careful about this operator's cost: "While efficient
duplicate elimination schemes based on hashing exist [Gerber 1986],
they require that the entire input must be kept in main memory hash
tables or in overflow files.  Thus, duplicate elimination based on
hashing may be impractical for a very large dividend relation."
(Section 2.2.2.)

:class:`HashDistinct` implements exactly that scheme: every distinct
input row is held in a memory-charged hash table, so running it over a
large dividend under a realistic memory budget overflows -- which is
the point.  The division-by-hash-aggregation strategy uses it when
asked to be duplicate-safe, and the benchmark suite uses it to show the
memory asymmetry against hash-division (which only ever holds the
divisor and quotient tables).
"""

from __future__ import annotations

from repro.executor.hash_table import ChainedHashTable
from repro.executor.iterator import QueryIterator
from repro.relalg.tuples import Row


class HashDistinct(QueryIterator):
    """Stream distinct rows, holding every distinct row in memory.

    Output order is input order of first occurrence; the operator
    streams (each row is checked and either passed through or
    swallowed), but its memory grows with the number of distinct rows.
    """

    def __init__(self, input_op: QueryIterator, expected_distinct: int = 0) -> None:
        super().__init__(input_op.ctx, input_op.schema)
        self.input_op = input_op
        self.expected_distinct = expected_distinct
        self._table: ChainedHashTable | None = None

    def _open(self) -> None:
        expected = self.expected_distinct or 1024
        self._table = ChainedHashTable(
            self.ctx.cpu,
            self.ctx.memory,
            bucket_count=ChainedHashTable.buckets_for(expected),
            entry_bytes=self.schema.record_size,
            tag="hash-distinct",
            tracer=self.ctx.tracer,
        )
        try:
            self.input_op.open()
        except BaseException:
            # A failed child open must not leak the charged table.
            self._table.free()
            self._table = None
            raise

    def _next_batch(self) -> list[Row]:
        """The rows of the next input batch that the table had not
        seen, in input order; they are inserted."""
        assert self._table is not None
        while batch := self.input_op.next_batch():
            _, fresh = self._table.find_or_insert_many(batch, lambda: True)
            if fresh:
                return fresh
        return []

    def _close(self) -> None:
        self.input_op.close()
        if self._table is not None:
            self._table.free()
            self._table = None

    def children(self) -> tuple[QueryIterator, ...]:
        return (self.input_op,)
