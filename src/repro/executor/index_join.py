"""Index (semi-)joins.

Section 2.2.1 lists index join among the join methods usable before
sort-based aggregation ("typically merge join, index join, or their
semi-join versions").  These operators probe a
:class:`~repro.storage.index.SecondaryIndex` per outer tuple:

* :class:`IndexSemiJoin` passes outer tuples with at least one index
  match (an existence probe -- no record fetch, no random I/O),
* :class:`IndexJoin` additionally fetches the matching inner records
  by RID, paying random record access through the buffer pool.

An index join shines when the outer input is small relative to the
indexed relation; for the division workloads -- where the *dividend*
is the big input -- the benchmarks show exactly when it loses to the
hash semi-join.
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


class IndexJoin(QueryIterator):
    """Join the outer input with the indexed relation by index probes.

    Output: outer attributes followed by the inner attributes not in
    the join key.  Each match is fetched by RID -- random access that
    the buffer pool prices as random I/O when cold.
    """

    def __init__(self, outer: QueryIterator, index: SecondaryIndex) -> None:
        inner_schema = index.stored.schema
        inner_rest = [
            n for n in inner_schema.names if n not in set(index.key_names)
        ]
        schema = (
            outer.schema.concat(inner_schema.project(inner_rest))
            if inner_rest
            else outer.schema
        )
        super().__init__(outer.ctx, schema)
        missing = [n for n in index.key_names if n not in outer.schema]
        if missing:
            raise ExecutionError(
                f"index key attributes {missing} not in outer schema "
                f"{outer.schema.names}"
            )
        self.outer = outer
        self.index = index
        self._key_of = projector(outer.schema, index.key_names)
        self._rest_of = (
            projector(inner_schema, inner_rest) if inner_rest else (lambda row: ())
        )

    def _open(self) -> None:
        self.outer.open()

    def _next_batch(self) -> list[Row]:
        """One outer row's matches, in fetch order: the outer input is
        pulled row by row, so the RID fetches of a row happen after the
        consumer took the previous row's matches."""
        while (row := self.outer.next()) is not None:
            inner_rows = self.index.fetch(self._key_of(row))
            matches = [row + self._rest_of(inner) for inner in inner_rows]
            if matches:
                return matches
        return []

    def _close(self) -> None:
        self.outer.close()

    def children(self) -> tuple[QueryIterator, ...]:
        return (self.outer,)

    def describe(self) -> str:
        return f"IndexJoin(on={','.join(self.index.key_names)})"
