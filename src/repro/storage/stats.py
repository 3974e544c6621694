"""I/O statistics and the Table 3 cost weights.

The paper does not time the disk; it *computes* I/O cost from
statistics collected by the file system (Section 5.1) using the weights
of Table 3:

========================  ======
Physical seek on device    20 ms
Rotational latency         8 ms per transfer
Transfer time              0.5 ms per KByte
CPU cost per transfer      2 ms
========================  ======

The simulated disk feeds :class:`IoStatistics` one event per physical
page transfer; :meth:`IoStatistics.cost_ms` applies the weights.  A
*seek* is charged whenever a transfer is not physically sequential with
the previous transfer on the same device, which is how read-ahead of
"physically clustered or contiguous files" (Section 3.3) earns its
advantage in this model.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class IoWeights:
    """Table 3: milliseconds charged per I/O event."""

    seek_ms: float = 20.0
    latency_ms_per_transfer: float = 8.0
    transfer_ms_per_kib: float = 0.5
    cpu_ms_per_transfer: float = 2.0

    def cost_ms(self, seeks: int, transfers: int, bytes_moved: int) -> float:
        """Table 3 cost of ``transfers`` physical transfers moving
        ``bytes_moved`` bytes, ``seeks`` of them after a seek.

        The one aggregate form of the weights: device totals, deltas
        between snapshots, per-operator charges and event-log replays
        are all priced here, so their model ms agree to the last bit.
        """
        return (
            seeks * self.seek_ms
            + transfers * (self.latency_ms_per_transfer + self.cpu_ms_per_transfer)
            + (bytes_moved / 1024) * self.transfer_ms_per_kib
        )

    def event_cost_ms(self, nbytes: int, seek: bool) -> float:
        """Table 3 cost of one physical transfer of ``nbytes``.

        This is the per-event form of :meth:`cost_ms`: summing it over
        every recorded transfer reproduces the aggregate exactly (same
        weights, same formula), which is what the
        :mod:`repro.obs.iotrace` conservation validator checks.
        """
        return (
            (self.seek_ms if seek else 0.0)
            + self.latency_ms_per_transfer
            + self.cpu_ms_per_transfer
            + (nbytes / 1024) * self.transfer_ms_per_kib
        )


# -- seek/sequential classification (the one shared path) --------------
#
# Both simulated devices (:class:`repro.storage.disk.SimulatedDisk` and
# :class:`repro.storage.filedisk.FileBackedDisk`) report transfers
# through :meth:`IoStatistics.record_transfer`, which classifies them
# with these helpers -- there is exactly one definition of "what counts
# as a seek" in the system, and the disk-parity property test pins both
# devices to it.


def is_sequential(expected_next: int | None, page_no: int) -> bool:
    """A transfer is sequential iff it lands where the head already is.

    Args:
        expected_next: Page the device head would reach without moving
            (``None`` when the device has never been touched).
        page_no: Page actually transferred.
    """
    return expected_next == page_no


def seek_distance_pages(expected_next: int | None, page_no: int) -> int:
    """Pages of head movement charged for a transfer.

    Zero for a sequential transfer; for the first transfer on a device
    the arm is modelled as parked at page 0.
    """
    if expected_next == page_no:
        return 0
    if expected_next is None:
        return page_no
    return abs(page_no - expected_next)


class _NullIoTraceSink:
    """Default no-op event sink for :class:`IoStatistics`.

    The real ring-buffer log lives in :mod:`repro.obs.iotrace`; this
    stub keeps the storage layer import-free of ``repro.obs`` and makes
    the disabled path one attribute test (``trace.enabled``) with zero
    allocations -- the tests monkeypatch :meth:`record` to *raise* and
    run a full workload to prove the fast path never enters here.
    """

    __slots__ = ()

    enabled = False

    def record(
        self,
        device: str,
        page_no: int,
        nbytes: int,
        is_write: bool,
        sequential: bool,
        seek_distance: int,
        cost_ms: float,
    ) -> None:
        """Discard the event."""

    def register_pages(self, device: str, pages, file: str) -> None:
        """Discard the page-ownership registration."""

    def forget_pages(self, device: str, pages) -> None:
        """Discard the page-ownership removal."""

    def clear(self) -> None:
        """Nothing to clear."""


#: Process-wide shared no-op I/O event sink (stateless, safe to share).
NULL_IO_TRACE = _NullIoTraceSink()


@dataclass
class DeviceCounters:
    """Raw I/O counters for one simulated device."""

    reads: int = 0
    writes: int = 0
    seeks: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    @property
    def transfers(self) -> int:
        """Total physical transfers (reads + writes)."""
        return self.reads + self.writes

    @property
    def bytes_total(self) -> int:
        """Total bytes moved in either direction."""
        return self.bytes_read + self.bytes_written


class IoStatistics:
    """Per-device I/O accounting with Table 3 costing.

    One instance is shared by every simulated disk in an execution
    context; devices report each transfer via :meth:`record_transfer`.
    Sequentiality is tracked per device: a transfer at page ``p`` is
    sequential if the device's previous transfer ended at page ``p``.
    """

    def __init__(self, weights: IoWeights | None = None, trace=None) -> None:
        self.weights = weights or IoWeights()
        #: Event sink fed one record per physical transfer.  The no-op
        #: default costs one attribute test per transfer; attach a
        #: :class:`repro.obs.iotrace.IoEventLog` for page-level tracing.
        self.trace = NULL_IO_TRACE if trace is None else trace
        self._devices: dict[str, DeviceCounters] = {}
        self._next_sequential_page: dict[str, int] = {}

    def counters(self, device: str) -> DeviceCounters:
        """Counters for ``device`` (created on first use)."""
        if device not in self._devices:
            self._devices[device] = DeviceCounters()
        return self._devices[device]

    @property
    def devices(self) -> dict[str, DeviceCounters]:
        """All per-device counters keyed by device name."""
        return dict(self._devices)

    def record_transfer(
        self,
        device: str,
        page_no: int,
        page_bytes: int,
        is_write: bool,
    ) -> None:
        """Record one physical page transfer.

        Args:
            device: Device name.
            page_no: Page number transferred.
            page_bytes: Size of the transfer in bytes.
            is_write: True for a write, False for a read.
        """
        counters = self.counters(device)
        expected = self._next_sequential_page.get(device)
        sequential = is_sequential(expected, page_no)
        if not sequential:
            counters.seeks += 1
        self._next_sequential_page[device] = page_no + 1
        if is_write:
            counters.writes += 1
            counters.bytes_written += page_bytes
        else:
            counters.reads += 1
            counters.bytes_read += page_bytes
        trace = self.trace
        if trace.enabled:
            trace.record(
                device,
                page_no,
                page_bytes,
                is_write,
                sequential,
                seek_distance_pages(expected, page_no),
                self.weights.event_cost_ms(page_bytes, not sequential),
            )

    # -- costing -------------------------------------------------------

    def totals(self) -> DeviceCounters:
        """Counters summed over every device."""
        total = DeviceCounters()
        for counters in self._devices.values():
            total.reads += counters.reads
            total.writes += counters.writes
            total.seeks += counters.seeks
            total.bytes_read += counters.bytes_read
            total.bytes_written += counters.bytes_written
        return total

    def cost_ms(self, device: str | None = None) -> float:
        """Model I/O time in ms per the Table 3 weights.

        Args:
            device: Restrict to one device; ``None`` sums all devices.
        """
        counters = self.totals() if device is None else self.counters(device)
        return self.weights.cost_ms(
            counters.seeks, counters.transfers, counters.bytes_total
        )

    def snapshot(self) -> dict[str, DeviceCounters]:
        """Deep copy of current counters (for before/after deltas)."""
        return {
            name: DeviceCounters(
                c.reads, c.writes, c.seeks, c.bytes_read, c.bytes_written
            )
            for name, c in self._devices.items()
        }

    def cost_since(self, snapshot: dict[str, DeviceCounters]) -> float:
        """Model I/O ms accumulated since ``snapshot`` was taken."""
        total = 0.0
        for name, now in self._devices.items():
            then = snapshot.get(name, DeviceCounters())
            total += self.weights.cost_ms(
                now.seeks - then.seeks,
                now.transfers - then.transfers,
                now.bytes_total - then.bytes_total,
            )
        return total

    def reset(self) -> None:
        """Forget all counters and sequentiality state."""
        self._devices.clear()
        self._next_sequential_page.clear()
