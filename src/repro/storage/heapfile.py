"""Extent-based record files with record identifiers and scans.

A :class:`HeapFile` is an append-oriented sequence of slotted pages on
one device.  Pages are allocated in physically contiguous *extents*
(the paper's file system is "extent-based", Section 5.1), so a full
sequential scan pays one seek per extent rather than one per page --
the property that lets hash-based algorithms benefit from "efficient
read-ahead of physically clustered or contiguous files" (Section 3.3).

Records are addressed by :class:`RecordId` (page number, slot).  All
page access goes through the buffer pool; a scan fixes one page at a
time and hands out record bytes.

Writers and readers that need no record ids work a page at a time:
:meth:`HeapFile.append_rows` packs its rows with one ``struct`` call per
256 rows, fixes the last page once to copy in the ones that fit, and
builds every page the rows start as a complete slotted-page image
(:func:`~repro.storage.page.fresh_page_image`) that one
:meth:`~repro.storage.buffer.BufferPool.write_new_page` call installs,
booking the fixes, evictions and write-backs of formatting the page and
filling it.  When every other frame is fixed the formatted page evicts
itself before it is filled, and it is filled by a fix instead.
:meth:`HeapFile.scan_pages` decodes a whole page while it is fixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.errors import RecordNotFoundError, StorageError
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.page import SLOT_SIZE, SlottedPage, fresh_page_image

if TYPE_CHECKING:
    from repro.relalg.schema import RecordCodec

#: Pages allocated per extent.  Eight pages balances contiguity against
#: space waste for the paper's small divisor files.
DEFAULT_EXTENT_PAGES = 8


def _fitting(free: int, size: int) -> int:
    """How many ``size``-byte records fit ``free`` bytes of a page's
    free space (:attr:`SlottedPage.free_space`, which already reserves
    the first record's slot)."""
    return 0 if size > free else (free - size) // (size + SLOT_SIZE) + 1


@dataclass(frozen=True, order=True)
class RecordId:
    """Stable address of one record: (page number, slot number)."""

    page_no: int
    slot: int

    def __repr__(self) -> str:
        return f"RID({self.page_no}.{self.slot})"


class HeapFile:
    """An append-oriented record file on one buffered device.

    Args:
        pool: Buffer pool all page access goes through.
        disk: Backing device (its ``stats`` collector sees the I/O).
        name: File name, for diagnostics.
        extent_pages: Pages per allocation extent.
    """

    def __init__(
        self,
        pool: BufferPool,
        disk: SimulatedDisk,
        name: str = "heap",
        extent_pages: int = DEFAULT_EXTENT_PAGES,
    ) -> None:
        if extent_pages <= 0:
            raise StorageError("extent_pages must be positive")
        self.pool = pool
        self.disk = disk
        self.name = name
        self.extent_pages = extent_pages
        self._pages: list[int] = []
        self._page_set: set[int] = set()
        self._unused_extent_pages: list[int] = []
        #: Free space of the last data page (SlottedPage.free_space);
        #: only this file's appends change it.
        self._tail_free = 0
        #: A formatted empty page, and its free space.
        self._blank = bytes(fresh_page_image(disk.page_size, b"", 0))
        self._blank_free = SlottedPage(self._blank).free_space
        self._record_count = 0
        self._destroyed = False

    # -- size ------------------------------------------------------------

    @property
    def record_count(self) -> int:
        """Live records in the file."""
        return self._record_count

    @property
    def page_count(self) -> int:
        """Pages holding data (allocated-but-unused extent tail excluded)."""
        return len(self._pages)

    @property
    def page_numbers(self) -> tuple[int, ...]:
        """Data pages in scan order."""
        return tuple(self._pages)

    def __len__(self) -> int:
        return self._record_count

    # -- writes -----------------------------------------------------------

    def append(self, record: bytes) -> RecordId:
        """Append one record, returning its identifier."""
        self._check_live()
        if self._pages:
            if len(record) <= self._tail_free:
                return RecordId(self._pages[-1], self._fill_tail(record, 1))
            # Too large for the last page, which is still fixed once (a
            # cold page is read back), as append_rows does.
            self._fill_tail(b"", 0)
        self._start_page()
        return RecordId(self._pages[-1], self._fill_tail(record, 1))

    def append_rows(self, rows: Iterable[tuple], codec: RecordCodec) -> int:
        """Append tuples a page at a time; returns how many.

        Packs the rows with
        :meth:`~repro.relalg.schema.RecordCodec.pack_rows`, fixes the
        last page once to copy in the ones that fit, and writes each
        further page as one page image (see the module docstring).  A
        source that is not a ``list`` is pulled into one first.  Pages,
        record ids, buffer-pool misses, evictions and physical I/O are
        those of calling :meth:`append` with
        :meth:`~repro.relalg.schema.RecordCodec.encode` of each row,
        except while every other frame of the pool is fixed: each unfix
        then evicts the last page itself, so :meth:`append`'s fits
        probe at every page change reads the page back, where this call
        probes once.  A source that fixes pages as it yields should be
        appended per record: pulling it whole changes the LRU order of
        its pages.

        When the source raises, or a row is refused (arity, type,
        over-width string), the rows before it are written and the
        error propagates, as it would record by record.  A record too
        large for an empty page raises the page's
        :class:`~repro.errors.PageError`.
        """
        self._check_live()
        if not isinstance(rows, list):
            pulled: list[tuple] = []
            try:
                pulled.extend(rows)
            except BaseException:
                self.append_rows(pulled, codec)
                raise
            rows = pulled
        size = codec.record_size
        if rows and not _fitting(self._blank_free, size):
            # Too large for an empty page: raises the page's PageError
            # (or encode's error, for a refused first row).
            self.append(codec.encode(rows[0]))
        try:
            data = codec.pack_rows(rows)
        except Exception:
            # pack_rows does not say which row failed or always raise
            # encode's error; encoding row by row finds both.
            encoded: list[bytes] = []
            try:
                for row in rows:
                    encoded.append(codec.encode(row))
            finally:
                self._append_packed(memoryview(b"".join(encoded)), len(encoded), size)
            raise
        self._append_packed(memoryview(data), len(rows), size)
        return len(rows)

    def delete(self, rid: RecordId) -> None:
        """Delete the record at ``rid`` (tombstoned, space not reused)."""
        self._check_live()
        if rid.page_no not in self._page_set:
            raise RecordNotFoundError(f"{rid!r} is not a page of file {self.name!r}")
        view = self.pool.fix(self.disk.name, rid.page_no)
        try:
            SlottedPage(view).delete(rid.slot)
        finally:
            self.pool.unfix(self.disk.name, rid.page_no, dirty=True)
        self._record_count -= 1

    # -- reads ----------------------------------------------------------------

    def get(self, rid: RecordId) -> bytes:
        """Fetch one record by identifier (random access)."""
        self._check_live()
        view = self.pool.fix(self.disk.name, rid.page_no)
        try:
            return bytes(SlottedPage(view).get(rid.slot))
        finally:
            self.pool.unfix(self.disk.name, rid.page_no)

    def scan(self) -> Iterator[tuple[RecordId, bytes]]:
        """Sequential scan yielding ``(rid, record_bytes)``.

        Pages are fixed one at a time in physical order, so a cold scan
        is charged as sequential I/O.
        """
        self._check_live()
        for page_no in self._pages:
            view = self.pool.fix(self.disk.name, page_no)
            try:
                page = SlottedPage(view)
                records = [(slot, bytes(record)) for slot, record in page.records()]
            finally:
                self.pool.unfix(self.disk.name, page_no)
            for slot, record in records:
                yield RecordId(page_no, slot), record

    def scan_pages(self, codec: RecordCodec) -> Iterator[list[tuple]]:
        """Sequential scan yielding each page's decoded tuples as a list
        (empty for a page whose records are all deleted).

        Fixes and unfixes each page exactly as :meth:`scan` does, but
        decodes the whole page while it is fixed
        (:meth:`~repro.relalg.schema.RecordCodec.decode_page`).  The
        page is fixed when its list is asked for.
        """
        self._check_live()
        device, pool, decode_page = self.disk.name, self.pool, codec.decode_page
        for page_no in self._pages:
            view = pool.fix(device, page_no)
            try:
                rows = decode_page(SlottedPage(view))
            finally:
                pool.unfix(device, page_no)
            yield rows

    def scan_tuples(self, codec: RecordCodec) -> Iterator[tuple]:
        """Sequential scan yielding decoded tuples, without record ids;
        the pages are read as :meth:`scan_pages` reads them."""
        for rows in self.scan_pages(codec):
            yield from rows

    # -- lifecycle --------------------------------------------------------------

    def flush(self) -> None:
        """Force all dirty pages of this file's device to disk."""
        self._check_live()
        self.pool.flush_device(self.disk.name)

    def destroy(self) -> None:
        """Delete the file: forget buffered pages, free disk pages.

        Dirty buffered pages are dropped *without* write-back -- a
        deleted temp file must not be charged disk writes for data
        nobody will read (this mirrors the paper's observation that
        short-lived temp pages often "remain in the buffer pool from
        run creation to merging and deletion", Section 5.2).
        """
        if self._destroyed:
            return
        trace = self.disk.stats.trace
        if trace.enabled:
            trace.forget_pages(
                self.disk.name, self._pages + self._unused_extent_pages
            )
        for page_no in self._pages + self._unused_extent_pages:
            self.pool.forget_page(self.disk.name, page_no)
            self.disk.free_page(page_no)
        self._pages.clear()
        self._page_set.clear()
        self._unused_extent_pages.clear()
        self._record_count = 0
        self._destroyed = True

    # -- internals ----------------------------------------------------------------

    def _fresh_page_no(self) -> int:
        """The next page of the current extent, allocating a new extent
        when it is used up; :meth:`_take_page` makes it the last data
        page."""
        if not self._unused_extent_pages:
            self._unused_extent_pages = self.disk.allocate_extent(self.extent_pages)
            # File attribution for page-level I/O tracing: register the
            # extent's pages as ours (a no-op on the null sink).
            trace = self.disk.stats.trace
            if trace.enabled:
                trace.register_pages(
                    self.disk.name, self._unused_extent_pages, self.name
                )
        # Peek, don't pop: installing the page may evict a dirty victim
        # frame whose write-back faults, and a page popped before that
        # point would belong to neither list -- invisible to destroy()
        # and leaked on the device (found by the chaos suite under
        # injected temp-device write faults).
        return self._unused_extent_pages[0]

    def _take_page(self, page_no: int, free: int) -> None:
        self._unused_extent_pages.pop(0)
        self._pages.append(page_no)
        self._page_set.add(page_no)
        self._tail_free = free

    def _start_page(self) -> None:
        """Make a fresh, formatted page the last data page."""
        page_no = self._fresh_page_no()
        # Install a zeroed frame for the fresh page so formatting does
        # not require reading garbage from disk.
        view = self.pool.fix_new(self.disk.name, page_no)
        free = SlottedPage.format(view).free_space
        self.pool.unfix(self.disk.name, page_no, dirty=True)
        self._take_page(page_no, free)

    def _append_packed(self, data: memoryview, count: int, size: int) -> None:
        """Append ``count`` records of ``size`` bytes, packed back to
        back in ``data``: the last page takes what fits under one fix,
        and the rest go to fresh pages, one page image each."""
        done = 0
        if self._pages and count:
            done = min(count, _fitting(self._tail_free, size))
            # With no room the last page is still fixed once, as
            # append()'s fits probe fixes it.
            self._fill_tail(data[: done * size], done)
        page_size, device = self.disk.page_size, self.disk.name
        per_page = _fitting(self._blank_free, size)
        while done < count:
            end = min(count, done + per_page)
            part = data[done * size : end * size]
            page_no = self._fresh_page_no()
            image = fresh_page_image(page_size, part, end - done)
            if self.pool.write_new_page(device, page_no, self._blank, image):
                # Each record takes its bytes and a slot (see _fitting).
                free = max(0, self._blank_free - (end - done) * (size + SLOT_SIZE))
                self._take_page(page_no, free)
                self._record_count += end - done
            else:
                self._take_page(page_no, self._blank_free)
                self._fill_tail(part, end - done)
            done = end

    def _fill_tail(self, data: bytes, count: int) -> int:
        """Insert ``count`` equal-length records, packed back to back in
        ``data``, into the last page under one fix; returns the slot of
        the last record (the page's last slot).

        Records the page cannot hold raise :class:`PageError`.  When the
        fix grew the pool past its buffer size, the unfix that follows
        evicts; record at a time, that unfix comes after the first
        record, so the first record then gets a fix of its own and every
        eviction happens with the page in the same state.
        """
        device, page_no = self.disk.name, self._pages[-1]
        size = len(data) // count if count else 0
        done = 0
        while True:
            view = self.pool.fix(device, page_no)
            end = min(count, done + 1) if self.pool.over_target else count
            written = False
            try:
                page = SlottedPage(view)
                if end > done:
                    part = data
                    if end - done < count:  # split by the over-target rule
                        part = memoryview(data)[done * size : end * size]
                    page.insert_packed(part, end - done)
                    written = True
                    self._record_count += end - done
                self._tail_free = page.free_space
                last_slot = page.slot_count - 1
            finally:
                self.pool.unfix(device, page_no, dirty=written)
            done = end
            if done == count:
                return last_slot

    def _check_live(self) -> None:
        if self._destroyed:
            raise StorageError(f"heap file {self.name!r} has been destroyed")

    def __repr__(self) -> str:
        return (
            f"<HeapFile {self.name!r} {self._record_count} records on "
            f"{len(self._pages)} pages of {self.disk.name!r}>"
        )
