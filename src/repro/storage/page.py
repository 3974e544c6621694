"""Slotted data pages.

A slotted page stores variable-length records addressed by slot number,
so a record identifier (page number, slot) stays valid while other
records on the page come and go.  Layout::

    +--------+---------------------+              +------------------+
    | header | record record ...   | free space   | slot dir (grows  |
    | 4 B    | (grows upward)      |              |  downward)       |
    +--------+---------------------+              +------------------+

Header: ``slot_count`` (u16) and ``free_offset`` (u16, start of free
space).  Each slot directory entry holds the record's ``offset`` and
``length`` (u16 each); a deleted slot has offset ``0xFFFF``.

Besides the per-record accessors, a page works a batch at a time:
:meth:`SlottedPage.insert_packed` copies in several equal-length
records, packed back to back, with one slice assignment and writes the
header once, and :meth:`SlottedPage.unpack_records` decodes every live
record, with one ``iter_unpack`` when the slot directory shows the
dense layout of sequential inserts.  :func:`fresh_page_image` builds
the bytes of a fresh page filled that way without a page to fill.

The page operates directly on a caller-supplied ``bytearray`` -- in
practice a buffer-pool frame -- so record accessors hand out
``memoryview`` slices of buffer memory without copying, matching the
paper's file system where "copying is avoided as scans give memory
addresses to records fixed in the buffer pool" (Section 5.1).
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import Iterator

from repro.errors import PageError, RecordNotFoundError

_HEADER = struct.Struct("<HH")
_SLOT = struct.Struct("<HH")
_TOMBSTONE = 0xFFFF

HEADER_SIZE = _HEADER.size
SLOT_SIZE = _SLOT.size


def _directory(start: int, slot_count: int, record_size: int) -> bytes:
    """Directory entries for ``slot_count`` records of ``record_size``
    bytes stored back to back from offset ``start``.  The directory
    grows downward, so the last slot's entry comes first."""
    entries = []
    for slot in reversed(range(slot_count)):
        entries += (start + slot * record_size, record_size)
    return struct.pack(f"<{2 * slot_count}H", *entries)


@lru_cache(maxsize=256)
def _dense_directory(slot_count: int, record_size: int) -> bytes:
    """The slot directory sequential inserts of ``slot_count`` records of
    ``record_size`` bytes produce on a fresh page: back to back from the
    header, none deleted.  (Bytes, not a tuple of ints: a cached tuple's
    int objects pin allocator arenas and raised peak RSS.)"""
    return _directory(HEADER_SIZE, slot_count, record_size)


def fresh_page_image(page_size: int, data: bytes, count: int) -> bytearray:
    """The bytes of a ``page_size``-byte page that :meth:`SlottedPage.format`
    and :meth:`SlottedPage.insert_packed` of ``count`` equal-length
    records, packed back to back in ``data``, leave: the header, the
    records from the header on, and the cached dense directory.

    The records must fit an empty page; with ``count == 0`` this is the
    formatted empty page.
    """
    image = bytearray(page_size)
    end = HEADER_SIZE + len(data)
    _HEADER.pack_into(image, 0, count, end)
    image[HEADER_SIZE:end] = data
    if count:
        image[page_size - count * SLOT_SIZE :] = _dense_directory(count, len(data) // count)
    return image


class SlottedPage:
    """A slotted-page view over a ``bytearray`` buffer.

    The constructor interprets existing bytes; use :meth:`format` to
    initialize a fresh page.
    """

    __slots__ = ("_buf", "page_size")

    def __init__(self, buf: bytearray | memoryview, page_size: int | None = None) -> None:
        self._buf = buf if isinstance(buf, memoryview) else memoryview(buf)
        self.page_size = page_size if page_size is not None else len(self._buf)
        if len(self._buf) < self.page_size:
            raise PageError("buffer smaller than declared page size")
        if self.page_size < HEADER_SIZE + SLOT_SIZE:
            raise PageError(f"page size {self.page_size} too small for slotted layout")

    # -- header access ---------------------------------------------------

    @classmethod
    def format(cls, buf: bytearray | memoryview, page_size: int | None = None) -> "SlottedPage":
        """Initialize ``buf`` as an empty slotted page and return it."""
        page = cls(buf, page_size)
        _HEADER.pack_into(page._buf, 0, 0, HEADER_SIZE)
        return page

    @property
    def slot_count(self) -> int:
        """Slots in the directory, including tombstones."""
        return _HEADER.unpack_from(self._buf, 0)[0]

    @property
    def _free_offset(self) -> int:
        return _HEADER.unpack_from(self._buf, 0)[1]

    def _set_header(self, slot_count: int, free_offset: int) -> None:
        _HEADER.pack_into(self._buf, 0, slot_count, free_offset)

    def _slot_position(self, slot: int) -> int:
        return self.page_size - (slot + 1) * SLOT_SIZE

    def _read_slot(self, slot: int) -> tuple[int, int]:
        if not 0 <= slot < self.slot_count:
            raise RecordNotFoundError(f"slot {slot} out of range (count={self.slot_count})")
        return _SLOT.unpack_from(self._buf, self._slot_position(slot))

    # -- capacity ------------------------------------------------------------

    @property
    def free_space(self) -> int:
        """Bytes available for one more record *and* its slot entry."""
        directory_start = self.page_size - self.slot_count * SLOT_SIZE
        gap = directory_start - self._free_offset
        return max(0, gap - SLOT_SIZE)

    def fits(self, record_size: int) -> bool:
        """True when a record of ``record_size`` bytes can be inserted."""
        return record_size <= self.free_space

    @property
    def record_count(self) -> int:
        """Live (non-deleted) records on the page."""
        return sum(
            1 for slot in range(self.slot_count) if self._read_slot(slot)[0] != _TOMBSTONE
        )

    @classmethod
    def capacity_for(cls, page_size: int, record_size: int) -> int:
        """Records of ``record_size`` bytes that fit on an empty page."""
        usable = page_size - HEADER_SIZE
        return max(0, usable // (record_size + SLOT_SIZE))

    # -- record operations -----------------------------------------------------

    def insert(self, record: bytes) -> int:
        """Insert ``record`` and return its slot number.

        Raises:
            PageError: when the record does not fit (callers check
                :meth:`fits` or handle the error by allocating a new
                page).
        """
        self.insert_packed(record, 1)
        return self.slot_count - 1

    def insert_packed(self, data: bytes | memoryview, count: int) -> None:
        """Insert ``count`` records of equal length, packed back to back
        in ``data``, in order.

        The page ends as inserting each record with :meth:`insert` would
        leave it.  The records are copied in with one slice assignment;
        the directory entries of a fresh page are the cached dense
        directory, and the header is written once.

        Raises:
            PageError: when not all of them fit; nothing is written.
        """
        if not count:
            return
        length = len(data) // count
        if length >= _TOMBSTONE:
            raise PageError(f"record of {length} bytes exceeds slotted-page limit")
        buf = self._buf
        slot_count, free_offset = _HEADER.unpack_from(buf, 0)
        directory = self.page_size - (slot_count + count) * SLOT_SIZE
        end = free_offset + count * length
        if end > directory:
            free = self.free_space
            if count == 1:
                raise PageError(f"record of {length} bytes does not fit ({free} free)")
            raise PageError(f"{count} records of {length} bytes do not fit ({free} free)")
        buf[free_offset:end] = data
        if slot_count == 0:
            entries = _dense_directory(count, length)
        else:
            entries = _directory(free_offset, count, length)
        buf[directory : directory + count * SLOT_SIZE] = entries
        self._set_header(slot_count + count, end)

    def get(self, slot: int) -> memoryview:
        """Zero-copy view of the record in ``slot``.

        Raises:
            RecordNotFoundError: for out-of-range or deleted slots.
        """
        offset, length = self._read_slot(slot)
        if offset == _TOMBSTONE:
            raise RecordNotFoundError(f"slot {slot} is deleted")
        return self._buf[offset : offset + length]

    def delete(self, slot: int) -> None:
        """Tombstone the record in ``slot`` (space is not compacted)."""
        offset, _length = self._read_slot(slot)
        if offset == _TOMBSTONE:
            raise RecordNotFoundError(f"slot {slot} is already deleted")
        _SLOT.pack_into(self._buf, self._slot_position(slot), _TOMBSTONE, 0)

    def records(self) -> Iterator[tuple[int, memoryview]]:
        """Iterate ``(slot, record_view)`` over live records in slot order."""
        for slot in range(self.slot_count):
            offset, length = self._read_slot(slot)
            if offset != _TOMBSTONE:
                yield slot, self._buf[offset : offset + length]

    def unpack_records(self, record: struct.Struct) -> list[tuple]:
        """Unpack every live record with ``record``, in slot order.

        When the slot directory is byte for byte the dense layout that
        sequential inserts of ``record.size``-byte records produce, the
        record area is decoded with one ``iter_unpack``.  Any other page
        (tombstones, other lengths) is decoded slot by slot from one
        ``unpack_from`` of the directory.  Either way the values equal
        ``record.unpack`` of each :meth:`records` view.
        """
        buf = self._buf
        slot_count = _HEADER.unpack_from(buf, 0)[0]
        directory = self.page_size - slot_count * SLOT_SIZE
        if bytes(buf[directory : self.page_size]) == _dense_directory(slot_count, record.size):
            area = buf[HEADER_SIZE : HEADER_SIZE + slot_count * record.size]
            return list(record.iter_unpack(area))
        entries = struct.unpack_from(f"<{2 * slot_count}H", buf, directory)
        unpack = record.unpack
        return [
            unpack(buf[entries[i] : entries[i] + entries[i + 1]])
            for i in range(len(entries) - 2, -1, -2)
            if entries[i] != _TOMBSTONE
        ]

    def __repr__(self) -> str:
        return (
            f"<SlottedPage {self.record_count}/{self.slot_count} records, "
            f"{self.free_space} bytes free>"
        )
