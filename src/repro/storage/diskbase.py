"""Shared device machinery for the two simulated disks.

:class:`repro.storage.disk.SimulatedDisk` (main-memory pages) and
:class:`repro.storage.filedisk.FileBackedDisk` (one UNIX backing file)
are the paper's two disk simulations (Section 5.1).  They must be
*indistinguishable to the cost model*: the same access sequence has to
produce identical :class:`~repro.storage.stats.IoStatistics` -- the
same transfers, the same seek classifications, the same Table 3
milliseconds -- no matter which backing holds the bytes.

Historically each class carried its own copy of the allocation
bookkeeping, page validation, write-size check, and statistics
reporting, which is exactly the kind of duplication that lets the two
cost accounts drift.  :class:`PagedDiskBase` now owns all of it; the
subclasses implement only the physical byte storage via four hooks
(:meth:`~PagedDiskBase._capacity`, :meth:`~PagedDiskBase._grow`,
:meth:`~PagedDiskBase._read_raw`, :meth:`~PagedDiskBase._write_raw`).
Every transfer funnels through :meth:`PagedDiskBase._account`, the one
shared classification path into
:meth:`~repro.storage.stats.IoStatistics.record_transfer` (and, when
tracing is enabled, into the :mod:`repro.obs.iotrace` event log).  A
Hypothesis parity test drives both devices with random access
sequences and asserts counter-for-counter equality.

Faults and defenses
-------------------

The base class is also where the :mod:`repro.faults` machinery plugs
in, so both disk simulations misbehave (and defend) identically:

* An optional :class:`~repro.faults.injector.FaultInjector` is
  consulted once per transfer.  It can raise transient or permanent
  :class:`~repro.errors.DiskFaultError`\\ s, corrupt the page image
  (a flipped bit in the returned copy, or in the stored image when
  ``persistent``), tear a write (first half durable, rest lost), or
  add model latency.  Without an injector the hot path pays one
  ``is None`` test and allocates nothing.
* Every :meth:`write_page` records a CRC32 of the *intended* bytes in
  a sidecar; every :meth:`read_page` verifies it when present, raising
  :class:`~repro.errors.ChecksumError` on mismatch -- the defense that
  turns silent corruption into a typed error.
* Transient faults and checksum failures are retried under a
  :class:`~repro.faults.retry.RetryPolicy` with capped exponential
  backoff on a deterministic :class:`~repro.faults.retry.BackoffClock`.
  Each retry re-issues the transfer through :meth:`_account`, so the
  Table 3 meters and the :mod:`repro.obs.iotrace` conservation checks
  see retried I/O as ordinary, fully accounted I/O; only the backoff
  *wait* is kept off the cost meters (on the clock and the
  :class:`DeviceFaultStats`), because it is queueing delay, not disk
  work.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ChecksumError, DiskError, DiskFaultError
from repro.faults.retry import DEFAULT_RETRY_POLICY, BackoffClock, RetryPolicy
from repro.storage.stats import IoStatistics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.faults.injector import FaultInjector, _DiskFault


@dataclass
class DeviceFaultStats:
    """Per-device fault / defense counters (model-time, off the cost meters).

    Attributes:
        faults_injected: Total disk faults the injector fired at this
            device (all kinds).
        transient_faults: Injected transient :class:`DiskFaultError`\\ s.
        permanent_faults: Injected permanent :class:`DiskFaultError`\\ s.
        corruptions: Injected bit flips (returned-copy or stored-image).
        torn_writes: Injected torn (partial) writes.
        checksum_failures: CRC32 mismatches detected on read.
        retries: Transfers re-issued after a transient failure.
        backoff_ms: Model milliseconds spent in retry backoff.
        latency_ms: Model milliseconds of injected device latency.
    """

    faults_injected: int = 0
    transient_faults: int = 0
    permanent_faults: int = 0
    corruptions: int = 0
    torn_writes: int = 0
    checksum_failures: int = 0
    retries: int = 0
    backoff_ms: float = 0.0
    latency_ms: float = 0.0

    def reset(self) -> None:
        """Zero every counter."""
        self.faults_injected = 0
        self.transient_faults = 0
        self.permanent_faults = 0
        self.corruptions = 0
        self.torn_writes = 0
        self.checksum_failures = 0
        self.retries = 0
        self.backoff_ms = 0.0
        self.latency_ms = 0.0

    def to_dict(self) -> dict:
        """JSON-ready counter snapshot (for metrics and chaos reports)."""
        return {
            "faults_injected": self.faults_injected,
            "transient_faults": self.transient_faults,
            "permanent_faults": self.permanent_faults,
            "corruptions": self.corruptions,
            "torn_writes": self.torn_writes,
            "checksum_failures": self.checksum_failures,
            "retries": self.retries,
            "backoff_ms": self.backoff_ms,
            "latency_ms": self.latency_ms,
        }


def _flip_bit(data: bytes, bit: int) -> bytes:
    """Return ``data`` with one bit flipped (index modulo the image size)."""
    if not data:
        return data
    bit %= len(data) * 8
    flipped = bytearray(data)
    flipped[bit // 8] ^= 1 << (bit % 8)
    return bytes(flipped)


class PagedDiskBase:
    """Common allocation, validation, and I/O accounting for devices.

    Args:
        name: Device name used in I/O statistics (e.g. ``"data"``,
            ``"temp"``).
        page_size: Bytes per page; this is also the transfer unit.
        stats: Shared statistics collector; pass the execution
            context's collector so all devices report to one place.

    Freed pages are recycled in LIFO order before the device grows, so
    temp files reuse space the way an extent allocator would.  Extents
    never recycle the free list, guaranteeing physical adjacency --
    contiguity matters to the cost model because sequential access
    within an extent pays only one seek.
    """

    def __init__(
        self,
        name: str,
        page_size: int,
        stats: IoStatistics | None = None,
        *,
        injector: "FaultInjector | None" = None,
        retry_policy: RetryPolicy | None = None,
        backoff_clock: BackoffClock | None = None,
    ) -> None:
        if page_size <= 0:
            raise DiskError("page_size must be positive")
        self.name = name
        self.page_size = page_size
        self.stats = stats if stats is not None else IoStatistics()
        self.injector = injector
        self.retry_policy = retry_policy if retry_policy is not None else DEFAULT_RETRY_POLICY
        self.backoff_clock = backoff_clock if backoff_clock is not None else BackoffClock()
        self.fault_stats = DeviceFaultStats()
        self._checksums: dict[int, int] = {}
        self._free: list[int] = []
        self._free_set: set[int] = set()
        self._closed = False

    def attach_faults(
        self,
        injector: "FaultInjector | None",
        retry_policy: RetryPolicy | None = None,
        backoff_clock: BackoffClock | None = None,
    ) -> None:
        """Attach (or detach, with ``None``) a fault injector.

        Optionally replaces the retry policy and backoff clock at the
        same time, so an execution context can share one clock across
        all its devices.
        """
        self.injector = injector
        if retry_policy is not None:
            self.retry_policy = retry_policy
        if backoff_clock is not None:
            self.backoff_clock = backoff_clock

    # -- allocation -----------------------------------------------------

    @property
    def page_count(self) -> int:
        """Pages currently allocated (live, not freed)."""
        return self._capacity() - len(self._free)

    def allocate_page(self) -> int:
        """Allocate one page and return its page number.

        Allocation itself performs no I/O (and charges none); cost is
        incurred when the page is written or read.
        """
        self._check_open()
        if self._free:
            page_no = self._free.pop()
            self._free_set.discard(page_no)
            return page_no
        return self._grow(1)

    def allocate_extent(self, pages: int) -> list[int]:
        """Allocate ``pages`` physically contiguous new pages."""
        self._check_open()
        if pages <= 0:
            raise DiskError("extent size must be positive")
        first = self._grow(pages)
        return list(range(first, first + pages))

    def free_page(self, page_no: int) -> None:
        """Return a page to the allocator (its contents are cleared).

        Cleanup writes bypass both accounting and fault injection: a
        failing device must never be able to block resource release,
        or the chaos invariant "all run files destroyed on error"
        could not hold.
        """
        self._check_open()
        self._check_page(page_no)
        self._write_raw(page_no, bytes(self.page_size))
        self._checksums.pop(page_no, None)
        self._free.append(page_no)
        self._free_set.add(page_no)

    # -- transfers --------------------------------------------------------

    def read_page(self, page_no: int) -> bytearray:
        """Read one page; returns a *copy* of its contents.

        Charges one transfer (plus a seek when non-sequential) to the
        statistics collector.  When the page carries a checksum it is
        verified; on a fault-injected device, transient faults and
        checksum mismatches are retried under the device's
        :class:`~repro.faults.retry.RetryPolicy` before the typed
        error propagates.
        """
        self._check_open()
        self._check_page(page_no)
        if self.injector is None:
            self._account(page_no, is_write=False)
            data = self._read_raw(page_no)
            self._verify_checksum(page_no, data)
            return data
        return self._retry_transfer(self._read_attempt, page_no)

    def write_page(self, page_no: int, data: bytes | bytearray | memoryview) -> None:
        """Write one full page.

        Charges one transfer (plus a seek when non-sequential).  The
        CRC32 of the *intended* bytes is recorded before the physical
        write, so a torn or corrupted write is caught by the checksum
        verification of a later read.
        """
        self._check_open()
        self._check_page(page_no)
        if len(data) != self.page_size:
            raise DiskError(
                f"write of {len(data)} bytes to device {self.name!r} with "
                f"page size {self.page_size}"
            )
        payload = bytes(data)
        self._checksums[page_no] = zlib.crc32(payload)
        if self.injector is None:
            self._account(page_no, is_write=True)
            self._write_raw(page_no, payload)
            return
        self._retry_transfer(self._write_attempt, page_no, payload)

    # -- fault application and defenses -----------------------------------

    def _retry_transfer(self, attempt, page_no: int, *args):
        """Run one transfer attempt under the retry policy.

        Transient :class:`~repro.errors.DiskFaultError`\\ s and
        :class:`~repro.errors.ChecksumError`\\ s (which a re-read of an
        intact stored image heals) are retried with capped exponential
        backoff; permanent faults propagate immediately.  Every retry
        re-enters ``attempt`` and therefore :meth:`_account`, so
        retried transfers are real, metered I/O.
        """
        policy = self.retry_policy
        failures = 0
        while True:
            try:
                return attempt(page_no, *args)
            except (DiskFaultError, ChecksumError) as exc:
                if isinstance(exc, DiskFaultError) and not exc.transient:
                    raise
                failures += 1
                if failures >= policy.max_attempts:
                    raise
                wait = policy.backoff_ms(failures)
                self.fault_stats.retries += 1
                self.fault_stats.backoff_ms += wait
                self.backoff_clock.wait(wait)

    def _read_attempt(self, page_no: int) -> bytearray:
        """One fault-checked read: consult the injector, transfer, verify."""
        fault = self.injector.on_disk_op(self.name, page_no, "read", self.page_size)
        if fault is not None:
            self._raise_or_delay(fault, "read", page_no)
        self._account(page_no, is_write=False)
        data = self._read_raw(page_no)
        if fault is not None and fault.kind == "corrupt":
            self.fault_stats.corruptions += 1
            if fault.rule.persistent:
                # Corrupt the stored image: every later read (including
                # retries) sees the flipped bit, so the checksum failure
                # cannot be healed by re-reading.
                stored = _flip_bit(bytes(data), fault.bit)
                self._write_raw(page_no, stored)
                data = bytearray(stored)
            else:
                # Corrupt only this transfer's copy; a retry re-reads
                # the intact stored image and heals.
                data = bytearray(_flip_bit(bytes(data), fault.bit))
        self._verify_checksum(page_no, data)
        return data

    def _write_attempt(self, page_no: int, payload: bytes) -> None:
        """One fault-checked write: consult the injector, transfer."""
        fault = self.injector.on_disk_op(self.name, page_no, "write", self.page_size)
        if fault is not None:
            self._raise_or_delay(fault, "write", page_no)
        self._account(page_no, is_write=True)
        if fault is not None and fault.kind == "torn":
            # The device acknowledged the write but only the first half
            # reached the platter.  The sidecar already holds the CRC of
            # the intended bytes, so the next read raises ChecksumError.
            half = self.page_size // 2
            self._write_raw(page_no, payload[:half] + bytes(self.page_size - half))
            self.fault_stats.torn_writes += 1
            return
        if fault is not None and fault.kind == "corrupt":
            # Silent write-path corruption of the stored image.
            self._write_raw(page_no, _flip_bit(payload, fault.bit))
            self.fault_stats.corruptions += 1
            return
        self._write_raw(page_no, payload)

    def _raise_or_delay(self, fault: "_DiskFault", op: str, page_no: int) -> None:
        """Apply the error / latency half of an injected fault.

        ``transient`` and ``permanent`` faults abort the attempt
        *before* accounting -- a failed transfer never reached the
        device, so it must not appear in the Table 3 meters (the
        retried attempt that eventually succeeds is accounted
        normally).  ``latency`` accumulates model delay on the fault
        stats and lets the transfer proceed.
        """
        self.fault_stats.faults_injected += 1
        if fault.kind == "transient":
            self.fault_stats.transient_faults += 1
            raise DiskFaultError(
                f"injected transient fault: {op} of page {page_no} on "
                f"device {self.name!r}",
                transient=True,
            )
        if fault.kind == "permanent":
            self.fault_stats.permanent_faults += 1
            raise DiskFaultError(
                f"injected permanent fault: {op} of page {page_no} on "
                f"device {self.name!r}",
                transient=False,
            )
        if fault.kind == "latency":
            self.fault_stats.latency_ms += fault.latency_ms

    def _verify_checksum(self, page_no: int, data: bytearray) -> None:
        """Raise :class:`~repro.errors.ChecksumError` on a CRC mismatch.

        Pages written before checksumming existed (or created by
        :meth:`_grow`) carry no sidecar entry and are not checked.
        """
        expected = self._checksums.get(page_no)
        if expected is None:
            return
        actual = zlib.crc32(data)
        if actual != expected:
            self.fault_stats.checksum_failures += 1
            raise ChecksumError(
                f"checksum mismatch on device {self.name!r} page {page_no}: "
                f"stored 0x{expected:08x}, read 0x{actual:08x}"
            )

    def _account(self, page_no: int, is_write: bool) -> None:
        """The one shared accounting/classification path.

        Every physical transfer of every device passes through here
        into :meth:`~repro.storage.stats.IoStatistics.record_transfer`,
        which classifies it as sequential or seek and (when tracing is
        on) emits one :class:`repro.obs.iotrace.IoEvent`.
        """
        self.stats.record_transfer(self.name, page_no, self.page_size, is_write)

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Release the device; further use raises :class:`DiskError`."""
        if not self._closed:
            self._release()
            self._free.clear()
            self._free_set.clear()
            self._checksums.clear()
            self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise DiskError(f"device {self.name!r} is closed")

    def _check_page(self, page_no: int) -> None:
        if not 0 <= page_no < self._capacity():
            raise DiskError(
                f"page {page_no} out of range on device {self.name!r} "
                f"({self._capacity()} pages)"
            )
        if page_no in self._free_set:
            raise DiskError(f"page {page_no} on device {self.name!r} is free")

    # -- physical-storage hooks (subclass responsibilities) ---------------

    def _capacity(self) -> int:
        """Pages ever allocated (live plus freed)."""
        raise NotImplementedError

    def _grow(self, pages: int) -> int:
        """Extend the device by ``pages`` zeroed pages; return the first
        new page number."""
        raise NotImplementedError

    def _read_raw(self, page_no: int) -> bytearray:
        """Fetch one page's bytes (a copy), without accounting."""
        raise NotImplementedError

    def _write_raw(self, page_no: int, data: bytes) -> None:
        """Store one page's bytes, without accounting.  ``data`` is an
        immutable ``bytes``, so it may be kept as it is."""
        raise NotImplementedError

    def _release(self) -> None:
        """Free the physical backing (called once, from :meth:`close`)."""
        raise NotImplementedError
