"""A page-addressed simulated disk.

The paper's file system "simulates a disk using a UNIX file or main
memory" (Section 5.1).  :class:`SimulatedDisk` is the main-memory
variant: a growable array of fixed-size pages.  Every read and write is
reported to :class:`~repro.storage.stats.IoStatistics`, which charges
seeks for non-sequential access and per-transfer latency/bandwidth per
Table 3.

Allocation, validation, and the accounting path live in the shared
:class:`~repro.storage.diskbase.PagedDiskBase`; this class only stores
bytes.  A disk knows nothing about records or files; extents and
slotted pages are layered on top by :mod:`repro.storage.heapfile`.
"""

from __future__ import annotations

from repro.storage.diskbase import PagedDiskBase
from repro.storage.stats import IoStatistics


class SimulatedDisk(PagedDiskBase):
    """A named device holding an in-memory array of fixed-size pages.

    Args:
        name: Device name used in I/O statistics (e.g. ``"data"``,
            ``"temp"``).
        page_size: Bytes per page; this is also the transfer unit, so a
            temp device for 1 KB sort runs is simply a disk with
            ``page_size=1024``.
        stats: Shared statistics collector; pass the execution
            context's collector so all devices report to one place.
        injector / retry_policy / backoff_clock: Optional
            :mod:`repro.faults` wiring, forwarded to
            :class:`~repro.storage.diskbase.PagedDiskBase`.
    """

    def __init__(
        self,
        name: str,
        page_size: int,
        stats: IoStatistics | None = None,
        **fault_kwargs,
    ) -> None:
        super().__init__(name, page_size, stats, **fault_kwargs)
        #: Page images, as the ``bytes`` :meth:`write_page` checksummed
        #: (kept, not copied); reads hand out a mutable copy.
        self._pages: list[bytes] = []

    # -- physical-storage hooks ------------------------------------------

    def _capacity(self) -> int:
        return len(self._pages)

    def _grow(self, pages: int) -> int:
        first = len(self._pages)
        self._pages.extend([bytes(self.page_size)] * pages)
        return first

    def _read_raw(self, page_no: int) -> bytearray:
        return bytearray(self._pages[page_no])

    def _write_raw(self, page_no: int, data: bytes) -> None:
        self._pages[page_no] = data

    def _release(self) -> None:
        self._pages.clear()

    def __repr__(self) -> str:
        state = "closed" if self._closed else f"{self.page_count} pages"
        return f"<SimulatedDisk {self.name!r} page_size={self.page_size} {state}>"
