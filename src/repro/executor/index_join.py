"""Index semi-join.

Section 2.2.1 lists index join among the join methods usable before
sort-based aggregation ("typically merge join, index join, or their
semi-join versions").  :class:`IndexSemiJoin` probes a
:class:`~repro.storage.index.SecondaryIndex` per outer tuple and passes
the outer tuples with at least one match (an existence probe -- no
record fetch, no random I/O).

An index semi-join shines when the outer input is small relative to
the indexed relation; for the division workloads -- where the
*dividend* is the big input -- the benchmarks show exactly when it
loses to the hash semi-join.
"""

from __future__ import annotations

from repro.errors import ExecutionError
from repro.executor.iterator import QueryIterator
from repro.relalg.tuples import Row, projector
from repro.storage.index import SecondaryIndex


class IndexSemiJoin(QueryIterator):
    """Outer tuples with at least one match in the index.

    Args:
        outer: The probing input; its tuples are produced.
        index: Secondary index on the inner relation; its key
            attributes must all exist in the outer schema (matched by
            name).
    """

    def __init__(self, outer: QueryIterator, index: SecondaryIndex) -> None:
        super().__init__(outer.ctx, outer.schema)
        missing = [n for n in index.key_names if n not in outer.schema]
        if missing:
            raise ExecutionError(
                f"index key attributes {missing} not in outer schema "
                f"{outer.schema.names}"
            )
        self.outer = outer
        self.index = index
        self._key_of = projector(outer.schema, index.key_names)

    def _open(self) -> None:
        self.outer.open()

    def _next_batch(self) -> list[Row]:
        contains, key_of = self.index.contains, self._key_of
        while batch := self.outer.next_batch():
            rows = [row for row in batch if contains(key_of(row))]
            if rows:
                return rows
        return []

    def _close(self) -> None:
        self.outer.close()

    def children(self) -> tuple[QueryIterator, ...]:
        return (self.outer,)

    def describe(self) -> str:
        return f"IndexSemiJoin(on={','.join(self.index.key_names)})"
