"""Materialization: spool a plan's output to a temp file and rescan it.

Used when an intermediate result must be consumed more than once or
must exist in file form (e.g. partition spooling in the overflow
driver).  The spooled file lives on the 8 KB ``temp`` device and is
destroyed on close.  Both operators read their file back a page per
batch, as :class:`~repro.executor.scan.PageScan` operators.
"""

from __future__ import annotations

from repro.executor.iterator import ExecContext, QueryIterator
from repro.executor.scan import PageScan
from repro.relalg.schema import Schema
from repro.storage.heapfile import HeapFile


class Materialize(PageScan):
    """Spool the input to a temp heap file at open, then scan it.

    The write pays sequential write I/O (on eviction/flush) and the
    scan pays read I/O only for pages that no longer sit in the buffer
    pool -- mirroring the paper's observation that temp pages often
    "remain in the buffer pool from run creation to merging and
    deletion" (Section 5.2).
    """

    def __init__(self, input_op: QueryIterator) -> None:
        super().__init__(input_op.ctx, input_op.schema)
        self.input_op = input_op
        self._file: HeapFile | None = None
        self._codec = input_op.schema.codec()

    def _open(self) -> None:
        self._file = self.ctx.temp_file("temp")
        try:
            self.input_op.open()
            try:
                # Record at a time: pulling a row may fix input pages,
                # and batching the spool would change the order pages
                # are fixed in, so which frame a small pool evicts.
                encode, append = self._codec.encode, self._file.append
                for row in self.input_op:
                    append(encode(row))
            finally:
                self.input_op.close()
            self._scan(self._file, self._codec)
        except BaseException:
            # A failed _open leaves the operator CLOSED, so _close will
            # never run -- the spool file must be reclaimed here or it
            # leaks temp pages (found by the chaos suite under injected
            # temp-device write faults).
            self._file.destroy()
            self._file = None
            raise

    def _close(self) -> None:
        super()._close()
        if self._file is not None:
            self._file.destroy()
            self._file = None

    def children(self) -> tuple[QueryIterator, ...]:
        return (self.input_op,)


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
