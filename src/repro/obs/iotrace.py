"""Page-level I/O event tracing and cost-model conservation checks.

The paper never times a disk: it *computes* I/O cost from file-system
statistics (Section 5.1) using the Table 3 weights, so every Table 4
number is only as credible as the storage layer's accounting.
:mod:`repro.obs.profile` instruments plans from above;
this module instruments them from *below*: every physical page
transfer of every simulated device becomes one :class:`IoEvent` in a
bounded ring buffer, carrying

* the device, page number, direction, and byte count,
* the seek-vs-sequential classification and the head movement in pages
  (one shared classification path with
  :class:`~repro.storage.stats.IoStatistics` -- the event is emitted by
  ``record_transfer`` itself, so the log *cannot* disagree with the
  counters about what happened),
* the Table 3 cost of that single transfer,
* the owning file (heap files register their page ranges), and
* the innermost executing operator (via the profile stack).

Because the log is fed by the same call that updates the aggregate
counters, replaying it through :class:`~repro.storage.stats.IoWeights`
must reproduce ``IoStatistics.cost_ms`` *exactly* -- the conservation
check of :func:`verify_conservation`, which turns the cost model from
"trusted" into "checked".  :func:`verify_attribution` closes the loop
upward: per-operator event totals must equal the EXPLAIN ANALYZE
profile's per-operator I/O deltas.

Tracing is off by default.  The storage layer's null sink
(:data:`repro.storage.stats.NULL_IO_TRACE`) costs one attribute test
per transfer and allocates nothing; the test suite proves the
zero-allocation claim by monkeypatching event construction to raise.

Exporters: :func:`events_to_jsonl` (one JSON object per line) and
:func:`events_to_chrome_trace` (Chrome ``trace_event`` format -- open
the file in ``chrome://tracing`` or Perfetto; each device is a lane,
each transfer a slice whose length is its modeled cost, seeks
categorised so they can be highlighted).
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional

from repro.storage.stats import DeviceCounters, IoStatistics, IoWeights

#: Default ring-buffer capacity (events).  A full nine-point Table 4
#: reproduction stays well under this; the log drops the *oldest*
#: events beyond it and counts the drops so validators can refuse.
DEFAULT_CAPACITY = 1 << 16


@dataclass(frozen=True)
class IoEvent:
    """One physical page transfer, fully attributed.

    Attributes:
        seq: Monotonic event index (0-based, survives ring overflow).
        device: Device name (``data`` / ``temp`` / ``runs``).
        page_no: Page number transferred.
        kind: ``"read"`` or ``"write"``.
        nbytes: Size of the transfer in bytes.
        sequential: True when the transfer landed where the head was.
        seek_distance: Head movement in pages (0 when sequential).
        cost_ms: Table 3 model milliseconds for this single transfer.
        file: Owning file name, when the page range was registered.
        operator: Innermost executing operator class, when a recording
            tracer's profile stack was active.
    """

    seq: int
    device: str
    page_no: int
    kind: str
    nbytes: int
    sequential: bool
    seek_distance: int
    cost_ms: float
    file: Optional[str] = None
    operator: Optional[str] = None

    @property
    def is_write(self) -> bool:
        """True for a write transfer."""
        return self.kind == "write"

    def to_dict(self) -> dict:
        """JSON-ready representation (one JSONL line)."""
        return {
            "seq": self.seq,
            "device": self.device,
            "page": self.page_no,
            "kind": self.kind,
            "bytes": self.nbytes,
            "sequential": self.sequential,
            "seek_distance": self.seek_distance,
            "cost_ms": self.cost_ms,
            "file": self.file,
            "operator": self.operator,
        }


class IoEventLog:
    """A bounded ring-buffer log of physical page transfers.

    Implements the sink protocol :class:`~repro.storage.stats.IoStatistics`
    expects (``enabled`` / ``record`` / ``register_pages`` /
    ``forget_pages`` / ``clear``), so attaching it is one assignment --
    :class:`~repro.executor.iterator.ExecContext` does it when
    constructed with ``io_trace=``.

    Args:
        capacity: Maximum events retained; older events are dropped
            (and counted in :attr:`dropped`).
        operator_provider: Zero-argument callable returning the
            innermost executing operator's label (or ``None``); wired
            to :meth:`repro.obs.span.Tracer.current_operator_label`.
    """

    enabled = True

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        operator_provider: Callable[[], Optional[str]] | None = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.operator_provider = operator_provider
        self.dropped = 0
        self._events: deque[IoEvent] = deque(maxlen=capacity)
        self._seq = 0
        self._owners: dict[tuple[str, int], str] = {}

    # -- sink protocol (called by IoStatistics.record_transfer) --------

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
        """Append one event (classification already done upstream)."""
        if len(self._events) == self.capacity:
            self.dropped += 1
        provider = self.operator_provider
        self._events.append(
            IoEvent(
                seq=self._seq,
                device=device,
                page_no=page_no,
                kind="write" if is_write else "read",
                nbytes=nbytes,
                sequential=sequential,
                seek_distance=seek_distance,
                cost_ms=cost_ms,
                file=self._owners.get((device, page_no)),
                operator=provider() if provider is not None else None,
            )
        )
        self._seq += 1

    def register_pages(self, device: str, pages: Iterable[int], file: str) -> None:
        """Record that ``file`` owns ``pages`` on ``device``."""
        owners = self._owners
        for page_no in pages:
            owners[(device, page_no)] = file

    def forget_pages(self, device: str, pages: Iterable[int]) -> None:
        """Drop ownership records (file destroyed, pages recyclable)."""
        owners = self._owners
        for page_no in pages:
            owners.pop((device, page_no), None)

    def clear(self) -> None:
        """Forget all events (ownership registrations are kept).

        :meth:`~repro.executor.iterator.ExecContext.reset_meters`
        calls this together with ``IoStatistics.reset()`` so the log
        and the counters always describe the same window -- the
        precondition of the conservation check.
        """
        self._events.clear()
        self.dropped = 0
        self._seq = 0

    @classmethod
    def from_events(cls, events: Iterable[IoEvent]) -> "IoEventLog":
        """Rebuild a log from previously exported events (verbatim).

        Used by ``repro trace summarize`` to re-analyse a JSONL trace;
        sequence numbers are preserved, nothing is re-stamped.
        """
        events = tuple(events)
        log = cls(capacity=max(1, len(events)))
        log._events.extend(events)
        log._seq = (events[-1].seq + 1) if events else 0
        return log

    # -- observers ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def events(self) -> tuple[IoEvent, ...]:
        """The retained events, oldest first."""
        return tuple(self._events)

    def __iter__(self) -> Iterator[IoEvent]:
        return iter(tuple(self._events))


# -- replay / conservation ---------------------------------------------


def replay_counters(events: Iterable[IoEvent]) -> dict[str, DeviceCounters]:
    """Rebuild per-device :class:`DeviceCounters` from an event stream.

    Integer counters only -- replaying then pricing with
    :class:`IoWeights` uses exactly the arithmetic of
    :meth:`IoStatistics.cost_ms`, so equality is exact, not
    approximate.
    """
    devices: dict[str, DeviceCounters] = {}
    for event in events:
        counters = devices.get(event.device)
        if counters is None:
            counters = devices[event.device] = DeviceCounters()
        if not event.sequential:
            counters.seeks += 1
        if event.is_write:
            counters.writes += 1
            counters.bytes_written += event.nbytes
        else:
            counters.reads += 1
            counters.bytes_read += event.nbytes
    return devices


def replay_cost_ms(
    events: Iterable[IoEvent], weights: IoWeights | None = None
) -> dict[str, float]:
    """Per-device Table 3 milliseconds recomputed from the event log."""
    weights = weights or IoWeights()
    return {
        device: weights.cost_ms(counters.seeks, counters.transfers, counters.bytes_total)
        for device, counters in replay_counters(events).items()
    }


@dataclass
class ConservationReport:
    """Outcome of replaying the event log against the aggregate meters.

    Attributes:
        ok: True when every device's replayed cost equals the reported
            cost exactly and no events were dropped.
        per_device: ``device -> (replayed_ms, reported_ms)``.
        dropped: Ring-buffer drops (any drop invalidates the check).
        mismatches: Human-readable descriptions of each failure.
    """

    ok: bool
    per_device: dict = field(default_factory=dict)
    dropped: int = 0
    mismatches: list = field(default_factory=list)

    def __str__(self) -> str:
        if self.ok:
            devices = ", ".join(
                f"{dev}={replayed:.3f}ms" for dev, (replayed, _) in sorted(self.per_device.items())
            )
            return f"conservation OK ({devices or 'no I/O'})"
        return "conservation FAILED: " + "; ".join(self.mismatches)


def verify_conservation(
    log: IoEventLog, io_stats: IoStatistics
) -> ConservationReport:
    """Check that the event log conserves the cost model.

    Replays every event through the Table 3 weights and compares, per
    device, with ``io_stats.cost_ms(device)`` *and* the raw counters.
    Equality is exact: the replay reconstructs integer counters and
    prices them with the same formula.

    A log that dropped events cannot conserve anything; the report
    fails with the drop count.
    """
    report = ConservationReport(ok=True, dropped=log.dropped)
    if log.dropped:
        report.ok = False
        report.mismatches.append(
            f"{log.dropped} events dropped by the ring buffer "
            f"(capacity {log.capacity}); raise the capacity to validate"
        )
    replayed = replay_counters(log.events())
    weights = io_stats.weights
    devices = set(replayed) | set(io_stats.devices)
    for device in sorted(devices):
        got = replayed.get(device, DeviceCounters())
        want = io_stats.devices.get(device, DeviceCounters())
        replayed_ms = weights.cost_ms(got.seeks, got.transfers, got.bytes_total)
        reported_ms = io_stats.cost_ms(device) if device in io_stats.devices else 0.0
        report.per_device[device] = (replayed_ms, reported_ms)
        if (
            got.reads != want.reads
            or got.writes != want.writes
            or got.seeks != want.seeks
            or got.bytes_read != want.bytes_read
            or got.bytes_written != want.bytes_written
        ):
            report.ok = False
            report.mismatches.append(
                f"device {device!r}: replayed counters {got} != reported {want}"
            )
        elif replayed_ms != reported_ms:
            report.ok = False
            report.mismatches.append(
                f"device {device!r}: replayed {replayed_ms} ms != "
                f"reported {reported_ms} ms"
            )
    return report


# -- operator attribution ----------------------------------------------


def attribution_by_operator(
    events: Iterable[IoEvent],
) -> dict[Optional[str], DeviceCounters]:
    """Per-operator (by class) I/O counters rebuilt from the events.

    Events recorded outside any operator are grouped under ``None``.
    """
    operators: dict[Optional[str], DeviceCounters] = {}
    for event in events:
        counters = operators.get(event.operator)
        if counters is None:
            counters = operators[event.operator] = DeviceCounters()
        if not event.sequential:
            counters.seeks += 1
        if event.is_write:
            counters.writes += 1
            counters.bytes_written += event.nbytes
        else:
            counters.reads += 1
            counters.bytes_read += event.nbytes
    return operators


@dataclass
class AttributionReport:
    """Event-log operator attribution vs. the EXPLAIN ANALYZE profile.

    Attributes:
        ok: True when, for every operator class, the event log and the
            profile agree on reads/writes/seeks, and no event outside
            an operator was recorded during the profiled window.
        per_operator: ``op_class -> (event_counters, profile_counters)``.
        mismatches: Human-readable failure descriptions.
    """

    ok: bool
    per_operator: dict = field(default_factory=dict)
    mismatches: list = field(default_factory=list)

    def __str__(self) -> str:
        return (
            "attribution OK"
            if self.ok
            else "attribution FAILED: " + "; ".join(self.mismatches)
        )


def verify_attribution(log: IoEventLog, profile) -> AttributionReport:
    """Check per-operator I/O attribution sums to the run totals.

    The profile's per-operator deltas (exclusive, from the meter-stack
    accounting in :mod:`repro.obs.profile`) are aggregated by operator
    class and compared with the event log's per-operator counters.
    Both views observed the same transfers through independent
    mechanisms -- meter snapshots settled on operator enter/exit
    vs. per-event stack peeks -- so agreement means the attribution is
    self-consistent from single page transfer up to the run total.
    """
    report = AttributionReport(ok=True)
    if log.dropped:
        report.ok = False
        report.mismatches.append(f"{log.dropped} events dropped by the ring buffer")
    from_events = attribution_by_operator(log.events())
    from_profile: dict[str, DeviceCounters] = {}
    for stats in profile.all_operators():
        agg = from_profile.setdefault(stats.op_class, DeviceCounters())
        agg.reads += stats.io.reads
        agg.writes += stats.io.writes
        agg.seeks += stats.io.seeks
        agg.bytes_read += stats.io.bytes_read
        agg.bytes_written += stats.io.bytes_written
    unattributed = from_events.pop(None, None)
    if unattributed is not None and unattributed.transfers:
        report.ok = False
        report.mismatches.append(
            f"{unattributed.transfers} transfers recorded outside any operator"
        )
    for op_class in sorted(set(from_events) | set(from_profile)):
        got = from_events.get(op_class, DeviceCounters())
        want = from_profile.get(op_class, DeviceCounters())
        report.per_operator[op_class] = (got, want)
        if (
            got.reads != want.reads
            or got.writes != want.writes
            or got.seeks != want.seeks
        ):
            report.ok = False
            report.mismatches.append(
                f"operator {op_class}: events saw "
                f"r={got.reads} w={got.writes} s={got.seeks}, profile saw "
                f"r={want.reads} w={want.writes} s={want.seeks}"
            )
    return report


# -- summaries ---------------------------------------------------------


@dataclass(frozen=True)
class SeekOffender:
    """One (operator, device) group's share of the seek bill."""

    operator: str
    device: str
    seeks: int
    seek_ms: float
    transfers: int


def top_seek_offenders(
    events: Iterable[IoEvent],
    n: int = 5,
    weights: IoWeights | None = None,
) -> list[SeekOffender]:
    """The ``n`` (operator, device) groups paying the most seek cost.

    This is the question the paper's Table 4 raises but cannot answer
    from aggregates alone: *which operator* paid naive division's 20 ms
    seeks, and on which device.
    """
    weights = weights or IoWeights()
    groups: dict[tuple[str, str], list[int]] = {}
    for event in events:
        key = (event.operator or "(no operator)", event.device)
        entry = groups.get(key)
        if entry is None:
            entry = groups[key] = [0, 0]
        entry[1] += 1
        if not event.sequential:
            entry[0] += 1
    offenders = [
        SeekOffender(
            operator=op,
            device=dev,
            seeks=seeks,
            seek_ms=seeks * weights.seek_ms,
            transfers=transfers,
        )
        for (op, dev), (seeks, transfers) in groups.items()
        if seeks
    ]
    offenders.sort(key=lambda o: (-o.seeks, o.operator, o.device))
    return offenders[:n]


def render_summary(
    log: IoEventLog,
    io_stats: IoStatistics | None = None,
    top_n: int = 5,
) -> str:
    """Human-readable trace summary: per-device table, offenders,
    and (when the statistics are supplied) the conservation verdict."""
    weights = io_stats.weights if io_stats is not None else IoWeights()
    lines = [
        f"I/O trace: {len(log)} events"
        + (f" ({log.dropped} dropped)" if log.dropped else ""),
        "",
        f"{'device':8} {'reads':>7} {'writes':>7} {'seeks':>7} "
        f"{'KiB':>9} {'model ms':>10}",
    ]
    for device, counters in sorted(replay_counters(log.events()).items()):
        lines.append(
            f"{device:8} {counters.reads:>7} {counters.writes:>7} "
            f"{counters.seeks:>7} {counters.bytes_total / 1024:>9.1f} "
            f"{weights.cost_ms(counters.seeks, counters.transfers, counters.bytes_total):>10.3f}"
        )
    offenders = top_seek_offenders(log.events(), n=top_n, weights=weights)
    if offenders:
        lines.append("")
        lines.append(f"top {len(offenders)} seek offenders (operator x device):")
        for off in offenders:
            lines.append(
                f"  {off.operator:28} {off.device:6} seeks={off.seeks:<6} "
                f"seek_ms={off.seek_ms:<10.1f} transfers={off.transfers}"
            )
    if io_stats is not None:
        lines.append("")
        lines.append(str(verify_conservation(log, io_stats)))
    return "\n".join(lines)


# -- exporters ---------------------------------------------------------


def events_to_jsonl(events: Iterable[IoEvent]) -> str:
    """One compact JSON object per line (trailing newline included)."""
    lines = [json.dumps(event.to_dict(), sort_keys=True) for event in events]
    return "\n".join(lines) + ("\n" if lines else "")


def events_from_jsonl(text: str) -> tuple[IoEvent, ...]:
    """Parse :func:`events_to_jsonl` output back into events.

    The round-trip is loss-free, so a recorded trace can be shipped as
    JSONL and summarised or re-exported later (``repro trace summarize``).

    Raises:
        ValueError: On malformed lines or missing fields.
    """
    events = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            raw = json.loads(line)
            events.append(
                IoEvent(
                    seq=raw["seq"],
                    device=raw["device"],
                    page_no=raw["page"],
                    kind=raw["kind"],
                    nbytes=raw["bytes"],
                    sequential=raw["sequential"],
                    seek_distance=raw["seek_distance"],
                    cost_ms=raw["cost_ms"],
                    file=raw.get("file"),
                    operator=raw.get("operator"),
                )
            )
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ValueError(f"line {lineno}: not a valid I/O event: {exc}") from exc
    return tuple(events)


def read_jsonl(path) -> tuple[IoEvent, ...]:
    """Read a JSONL event file written by :func:`write_jsonl`."""
    from pathlib import Path

    return events_from_jsonl(Path(path).read_text())


def events_to_chrome_trace(
    events: Iterable[IoEvent], weights: IoWeights | None = None
) -> dict:
    """The event log in Chrome ``trace_event`` format.

    Open the JSON in ``chrome://tracing`` or https://ui.perfetto.dev:
    one process ("repro model I/O"), one thread lane per device, one
    complete-event slice per transfer whose *duration is the Table 3
    model cost* (timestamps are the device's cumulative model time, so
    a lane's width is exactly its ``cost_ms``).  Seeks carry category
    ``"seek"`` so they can be isolated with the category filter.
    """
    trace_events: list[dict] = [
        {
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "name": "process_name",
            "args": {"name": "repro model I/O (Table 3 ms)"},
        }
    ]
    tids: dict[str, int] = {}
    cursor_ms: dict[str, float] = {}
    for event in events:
        tid = tids.get(event.device)
        if tid is None:
            tid = tids[event.device] = len(tids) + 1
            trace_events.append(
                {
                    "ph": "M",
                    "pid": 1,
                    "tid": tid,
                    "name": "thread_name",
                    "args": {"name": f"device:{event.device}"},
                }
            )
        start_ms = cursor_ms.get(event.device, 0.0)
        cursor_ms[event.device] = start_ms + event.cost_ms
        trace_events.append(
            {
                "ph": "X",
                "pid": 1,
                "tid": tid,
                "ts": start_ms * 1000.0,  # microseconds
                "dur": event.cost_ms * 1000.0,
                "cat": "sequential" if event.sequential else "seek",
                "name": f"{event.kind} p{event.page_no}",
                "args": {
                    "seq": event.seq,
                    "bytes": event.nbytes,
                    "seek_distance": event.seek_distance,
                    "file": event.file,
                    "operator": event.operator,
                },
            }
        )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(path, events: Iterable[IoEvent], weights=None) -> None:
    """Serialise :func:`events_to_chrome_trace` to ``path``."""
    from pathlib import Path

    Path(path).write_text(
        json.dumps(events_to_chrome_trace(events, weights), indent=None) + "\n"
    )


def write_jsonl(path, events: Iterable[IoEvent]) -> None:
    """Serialise :func:`events_to_jsonl` to ``path``."""
    from pathlib import Path

    Path(path).write_text(events_to_jsonl(events))


# -- metrics absorption ------------------------------------------------

#: Seek-distance histogram buckets, in pages.
SEEK_DISTANCE_BUCKETS: tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 1024)


def absorb_io_event_log(registry, log: IoEventLog, **labels) -> None:
    """Fold the event log into the metrics registry.

    Emits the ``repro_io_event_*`` families: per-device/kind/access
    event counts, per-device byte and model-cost counters, the
    ring-buffer drop counter, and a per-device seek-distance histogram.
    """
    totals: dict[tuple[str, str, str], int] = {}
    for event in log.events():
        access = "sequential" if event.sequential else "seek"
        key = (event.device, event.kind, access)
        totals[key] = totals.get(key, 0) + 1
        device_labels = dict(labels, device=event.device)
        registry.counter("repro_io_event_bytes_total", **device_labels).inc(
            event.nbytes
        )
        registry.counter("repro_io_event_cost_ms_total", **device_labels).inc(
            event.cost_ms
        )
        if not event.sequential:
            registry.histogram(
                "repro_io_seek_distance_pages",
                boundaries=SEEK_DISTANCE_BUCKETS,
                **device_labels,
            ).observe(event.seek_distance)
    for (device, kind, access), count in sorted(totals.items()):
        registry.counter(
            "repro_io_events_total",
            **dict(labels, device=device, kind=kind, access=access),
        ).inc(count)
    registry.counter("repro_io_events_dropped_total", **labels).inc(log.dropped)
