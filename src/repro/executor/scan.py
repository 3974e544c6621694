"""Source operators: file scans and in-memory relation sources.

:class:`StoredRelationScan` is the metered path -- it reads pages
through the buffer pool, so cold scans incur sequential read I/O
exactly as the paper's file scans did.  It and :class:`TempFileScan`,
which reads back a temp file another operator wrote, are
:class:`PageScan` operators.
:class:`RelationSource` feeds an in-memory
:class:`~repro.relalg.relation.Relation` into a plan with no I/O at
all; it models an input arriving from an upstream operator in a
dataflow system, and is what lets unit tests exercise operators
without a storage setup.
"""

from __future__ import annotations

from typing import Iterator

from repro.executor.iterator import BufferedIterator, ExecContext
from repro.relalg.relation import Relation
from repro.relalg.schema import RecordCodec, Schema
from repro.relalg.tuples import Row
from repro.storage.catalog import StoredRelation
from repro.storage.heapfile import HeapFile


class PageScan(BufferedIterator):
    """Sequential scan of a heap file; a batch is one page's tuples.

    Each page is fixed once, in physical order, when its batch is asked
    for, and decoded whole (:meth:`HeapFile.scan_pages`); buffer misses
    become sequential read transfers on the backing device.  A page
    whose records are all deleted is skipped within the call.
    Subclasses start the scan in ``_open`` with :meth:`_scan`.
    """

    def __init__(self, ctx: ExecContext, schema: Schema) -> None:
        super().__init__(ctx, schema)
        self._pages: Iterator[list[Row]] | None = None

    def _scan(self, file: HeapFile, codec: RecordCodec) -> None:
        self._pages = file.scan_pages(codec)
        self._set_buffer([])

    def _refill(self) -> bool:
        assert self._pages is not None
        for rows in self._pages:
            if rows:
                self._set_buffer(rows)
                return True
        return False

    def _close(self) -> None:
        self._pages = None
        super()._close()


class StoredRelationScan(PageScan):
    """Sequential scan of a stored relation (heap file + codec)."""

    def __init__(self, ctx: ExecContext, stored: StoredRelation) -> None:
        super().__init__(ctx, stored.schema)
        self.stored = stored

    def _open(self) -> None:
        self._scan(self.stored.file, self.stored.codec)

    def describe(self) -> str:
        return f"StoredRelationScan({self.stored.name})"


class TempFileScan(PageScan):
    """Scan an existing temp heap file, optionally destroying it after.

    The partitioned-division driver writes partition files itself and
    uses this operator to feed each phase.
    """

    def __init__(
        self,
        ctx: ExecContext,
        file: HeapFile,
        schema: Schema,
        destroy_on_close: bool = False,
    ) -> None:
        super().__init__(ctx, schema)
        self.file = file
        self.destroy_on_close = destroy_on_close
        self._codec = schema.codec()

    def _open(self) -> None:
        self._scan(self.file, self._codec)

    def _close(self) -> None:
        super()._close()
        if self.destroy_on_close:
            self.file.destroy()

    def describe(self) -> str:
        return f"TempFileScan({self.file.name})"


class RelationSource(BufferedIterator):
    """Feed an in-memory relation into a plan (no I/O charged).

    One batch holds every tuple.
    """

    def __init__(self, ctx: ExecContext, relation: Relation) -> None:
        super().__init__(ctx, relation.schema)
        self.relation = relation

    def _open(self) -> None:
        self._set_buffer(list(self.relation))

    def describe(self) -> str:
        label = self.relation.name or "anonymous"
        return f"RelationSource({label}, {len(self.relation)} tuples)"
