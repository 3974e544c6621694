"""Hash join and hash semi-join.

The hash-based aggregation strategy for the paper's second example
query ("students who have taken all *database* courses") needs a
semi-join of the dividend with the restricted divisor before counting
(Section 2.2.2): "The hash table in the semi-join is built by hashing
on course-no's."  :class:`HashSemiJoin` is that operator; the build
side is the (small) inner relation, the probe side streams.

:class:`HashJoin` is the full join for completeness; the division
pipelines only need the semi-join.
"""

from __future__ import annotations

from itertools import compress
from typing import Sequence

from repro.errors import ExecutionError
from repro.executor.hash_table import ChainedHashTable
from repro.executor.iterator import QueryIterator, drain
from repro.relalg.tuples import Row, projector


class HashSemiJoin(QueryIterator):
    """Probe-side tuples that match at least one build-side tuple.

    Args:
        probe: The (large) streaming input; its tuples are produced.
        build: The (small) input loaded into the hash table at open.
        join_names: Equally named attributes to match on.
        expected_build_size: Sizing hint for the bucket array; defaults
            to building with a modest table that still yields the
            paper's hbs ~= 2 behaviour when the hint is accurate.
    """

    def __init__(
        self,
        probe: QueryIterator,
        build: QueryIterator,
        join_names: Sequence[str],
        expected_build_size: int = 0,
    ) -> None:
        if probe.ctx is not build.ctx:
            raise ExecutionError("join inputs must share one execution context")
        super().__init__(probe.ctx, probe.schema)
        self.join_names = tuple(join_names)
        self.probe = probe
        self.build = build
        self.expected_build_size = expected_build_size
        self._probe_key = projector(probe.schema, self.join_names)
        self._build_key = projector(build.schema, self.join_names)
        self._table: ChainedHashTable | None = None

    def _open(self) -> None:
        self.build.open()
        try:
            rows = drain(self.build)
        finally:
            self.build.close()
        expected = self.expected_build_size or len(rows)
        self._table = ChainedHashTable(
            self.ctx.cpu,
            self.ctx.memory,
            bucket_count=ChainedHashTable.buckets_for(expected),
            entry_bytes=self.build.schema.record_size,
            tag="semijoin-build",
            tracer=self.ctx.tracer,
        )
        try:
            # Build-side duplicates would only lengthen chains; keep one
            # entry per key (a semi-join needs existence only).
            self._table.find_or_insert_many(list(map(self._build_key, rows)), lambda: True)
            self.probe.open()
        except BaseException:
            # Overflow mid-build or a failed probe open must not leak
            # the charged build table.
            self._table.free()
            self._table = None
            raise

    def _next_batch(self) -> list[Row]:
        """The rows of the next probe batch whose key is in the build
        table."""
        assert self._table is not None
        while batch := self.probe.next_batch():
            found = self._table.find_many(list(map(self._probe_key, batch)))
            # A build payload is True and a miss None.
            rows = list(compress(batch, found))
            if rows:
                return rows
        return []

    def _close(self) -> None:
        self.probe.close()
        if self._table is not None:
            self._table.free()
            self._table = None

    def children(self) -> tuple[QueryIterator, ...]:
        return (self.probe, self.build)

    def describe(self) -> str:
        return f"HashSemiJoin(on={','.join(self.join_names)})"


class HashJoin(QueryIterator):
    """Classic build/probe hash join on equally named attributes.

    Output schema: probe attributes followed by the build attributes
    not in the join key.
    """

    def __init__(
        self,
        probe: QueryIterator,
        build: QueryIterator,
        join_names: Sequence[str],
        expected_build_size: int = 0,
    ) -> None:
        if probe.ctx is not build.ctx:
            raise ExecutionError("join inputs must share one execution context")
        self.join_names = tuple(join_names)
        build_rest = [n for n in build.schema.names if n not in set(join_names)]
        schema = (
            probe.schema.concat(build.schema.project(build_rest))
            if build_rest
            else probe.schema
        )
        super().__init__(probe.ctx, schema)
        self.probe = probe
        self.build = build
        self.expected_build_size = expected_build_size
        self._probe_key = projector(probe.schema, self.join_names)
        self._build_key = projector(build.schema, self.join_names)
        self._build_rest = (
            projector(build.schema, build_rest) if build_rest else (lambda row: ())
        )
        self._table: ChainedHashTable | None = None

    def _open(self) -> None:
        self.build.open()
        try:
            rows = drain(self.build)
        finally:
            self.build.close()
        expected = self.expected_build_size or len(rows)
        self._table = ChainedHashTable(
            self.ctx.cpu,
            self.ctx.memory,
            bucket_count=ChainedHashTable.buckets_for(expected),
            entry_bytes=self.build.schema.record_size,
            tag="join-build",
            tracer=self.ctx.tracer,
        )
        try:
            for row in rows:
                key = self._build_key(row)
                group, _ = self._table.find_or_insert(key, list)
                group.append(self._build_rest(row))
            self.probe.open()
        except BaseException:
            # Overflow mid-build or a failed probe open must not leak
            # the charged build table.
            self._table.free()
            self._table = None
            raise

    def _next_batch(self) -> list[Row]:
        """Each row of the next probe batch joined with every build row
        of its key, in build order."""
        assert self._table is not None
        while batch := self.probe.next_batch():
            groups = self._table.find_many(list(map(self._probe_key, batch)))
            rows = [
                row + rest
                for row, group in zip(batch, groups)
                if group is not None
                for rest in group
            ]
            if rows:
                return rows
        return []

    def _close(self) -> None:
        self.probe.close()
        if self._table is not None:
            self._table.free()
            self._table = None

    def children(self) -> tuple[QueryIterator, ...]:
        return (self.probe, self.build)

    def describe(self) -> str:
        return f"HashJoin(on={','.join(self.join_names)})"
