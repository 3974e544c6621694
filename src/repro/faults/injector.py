"""Seedable, deterministic fault injection: rules, decisions, schedules.

The paper's Section 5.1 simulated disk and Section 6 interconnect never
fail; production hardware does.  :class:`FaultInjector` is the one
decision point through which the storage, memory, and network layers
ask "does this operation fail, and how?".  It is

* **declarative** -- behaviour is a tuple of :class:`FaultRule`\\ s,
  each scoping one fault kind to a device / operation / page range /
  link and arming it with a trigger (probability, every-Nth, capped
  fire count),
* **deterministic** -- one seeded :class:`random.Random` drives every
  probabilistic trigger, so the same seed against the same operation
  sequence produces a byte-identical fault schedule (the chaos suite's
  replay guarantee), and
* **observable** -- every fired fault is appended to
  :attr:`FaultInjector.schedule` as a :class:`FaultEvent`, exportable
  as JSONL for CI artifacts and seed replay.

The hooks are pay-for-use: a layer holding no injector performs one
``is None`` test per operation and allocates nothing.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.errors import FaultConfigError, MemoryPoolError

#: Fault kinds applied to disk page transfers.
DISK_FAULT_KINDS = ("transient", "permanent", "corrupt", "torn", "latency")

#: Fault kinds applied to interconnect batch sends.
NETWORK_FAULT_KINDS = ("drop", "duplicate")

#: Fault kinds applied to memory-pool allocations.
MEMORY_FAULT_KINDS = ("exhaust", "pressure")

_ALL_KINDS = DISK_FAULT_KINDS + NETWORK_FAULT_KINDS + MEMORY_FAULT_KINDS

_DISK_OPS = ("read", "write", "any")


def _scope_of(kind: str) -> str:
    if kind in DISK_FAULT_KINDS:
        return "disk"
    if kind in NETWORK_FAULT_KINDS:
        return "network"
    return "memory"


@dataclass(frozen=True)
class FaultRule:
    """One declarative fault: *what* fails, *where*, and *when*.

    Attributes:
        kind: Fault kind; one of :data:`DISK_FAULT_KINDS` (``transient``
            / ``permanent`` device errors, ``corrupt`` bit flips,
            ``torn`` partial writes, ``latency``),
            :data:`NETWORK_FAULT_KINDS` (``drop`` / ``duplicate``
            batches), or :data:`MEMORY_FAULT_KINDS` (``exhaust`` one
            allocation, ``pressure`` shrinking the pool budget).
        op: Disk rules only: ``"read"``, ``"write"``, or ``"any"``.
        device: Disk rules: restrict to one device name (``None`` =
            any device).
        page_min / page_max: Disk rules: inclusive page-number range
            (``None`` = unbounded on that side).
        sender / receiver: Network rules: restrict to one link end
            (``None`` = any).
        tag: Memory rules: allocation-tag prefix (``None`` = any).
        probability: Chance of firing per eligible operation; ``1.0``
            fires on every eligible operation the other triggers allow.
        every_nth: Fire only on every Nth *eligible* operation.
        max_fires: Cap on total fires (``1`` = one-shot); ``None`` =
            unbounded.
        latency_ms: For ``latency``: model milliseconds added.
        bit: For ``corrupt``: which bit of the page image to flip;
            ``None`` picks one with the injector's seeded RNG (the
            choice is recorded in the schedule, so replay is exact).
        persistent: For ``corrupt``: flip the *stored* image (every
            later read sees it) instead of the returned copy (a
            transient transfer corruption healed by re-reading).
        pressure_factor: For ``pressure``: the pool budget is shrunk to
            ``budget * pressure_factor``.
    """

    kind: str
    op: str = "any"
    device: str | None = None
    page_min: int | None = None
    page_max: int | None = None
    sender: int | None = None
    receiver: int | None = None
    tag: str | None = None
    probability: float = 1.0
    every_nth: int | None = None
    max_fires: int | None = None
    latency_ms: float = 0.0
    bit: int | None = None
    persistent: bool = False
    pressure_factor: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in _ALL_KINDS:
            raise FaultConfigError(
                f"unknown fault kind {self.kind!r}; expected one of {_ALL_KINDS}"
            )
        if self.op not in _DISK_OPS:
            raise FaultConfigError(f"op must be one of {_DISK_OPS}, got {self.op!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise FaultConfigError("probability must be in [0, 1]")
        if self.every_nth is not None and self.every_nth < 1:
            raise FaultConfigError("every_nth must be >= 1")
        if self.max_fires is not None and self.max_fires < 1:
            raise FaultConfigError("max_fires must be >= 1")
        if self.kind == "latency" and self.latency_ms < 0:
            raise FaultConfigError("latency_ms must be >= 0")
        if self.kind == "torn" and self.op == "read":
            raise FaultConfigError("torn pages are a write fault; use op='write'")
        if not 0.0 < self.pressure_factor <= 1.0:
            raise FaultConfigError("pressure_factor must be in (0, 1]")

    @property
    def scope(self) -> str:
        """``"disk"``, ``"network"``, or ``"memory"`` -- derived from kind."""
        return _scope_of(self.kind)

    # -- scope matching ---------------------------------------------------

    def matches_disk(self, device: str, page_no: int, op: str) -> bool:
        """Is a disk transfer eligible for this rule?"""
        if self.scope != "disk":
            return False
        if self.op != "any" and self.op != op:
            return False
        if self.device is not None and self.device != device:
            return False
        if self.page_min is not None and page_no < self.page_min:
            return False
        if self.page_max is not None and page_no > self.page_max:
            return False
        return True

    def matches_network(self, sender: int, receiver: int) -> bool:
        """Is a batch send eligible for this rule?"""
        if self.scope != "network":
            return False
        if self.sender is not None and self.sender != sender:
            return False
        if self.receiver is not None and self.receiver != receiver:
            return False
        return True

    def matches_memory(self, tag: str) -> bool:
        """Is a pool allocation eligible for this rule?"""
        if self.scope != "memory":
            return False
        return self.tag is None or tag.startswith(self.tag)

    def to_dict(self) -> dict:
        """JSON-ready rule description (for provenance blocks)."""
        out: dict = {"kind": self.kind}
        for key in (
            "op", "device", "page_min", "page_max", "sender", "receiver",
            "tag", "every_nth", "max_fires", "bit",
        ):
            value = getattr(self, key)
            if value is not None and value != "any":
                out[key] = value
        if self.probability != 1.0:
            out["probability"] = self.probability
        if self.kind == "latency":
            out["latency_ms"] = self.latency_ms
        if self.persistent:
            out["persistent"] = True
        if self.kind == "pressure":
            out["pressure_factor"] = self.pressure_factor
        return out


@dataclass(frozen=True)
class FaultEvent:
    """One fired fault, as recorded in the injector's schedule.

    ``op_seq`` is the injector-global operation sequence number at fire
    time, so two schedules are comparable operation-for-operation; the
    ``detail`` dict carries kind-specific data (chosen bit, latency,
    link, tag) needed to replay the fault exactly.
    """

    seq: int
    op_seq: int
    rule_index: int
    kind: str
    scope: str
    op: str | None = None
    device: str | None = None
    page_no: int | None = None
    detail: tuple = ()

    def to_dict(self) -> dict:
        out = {
            "seq": self.seq,
            "op_seq": self.op_seq,
            "rule": self.rule_index,
            "kind": self.kind,
            "scope": self.scope,
        }
        if self.op is not None:
            out["op"] = self.op
        if self.device is not None:
            out["device"] = self.device
        if self.page_no is not None:
            out["page"] = self.page_no
        out.update(dict(self.detail))
        return out


@dataclass
class _DiskFault:
    """The injector's verdict on one disk transfer."""

    kind: str
    rule: FaultRule
    bit: int = 0
    latency_ms: float = 0.0


@dataclass
class InjectorCounters:
    """Aggregate fire counts, by kind (for metrics and provenance)."""

    by_kind: dict = field(default_factory=dict)

    def count(self, kind: str) -> None:
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1

    @property
    def total(self) -> int:
        return sum(self.by_kind.values())


class FaultInjector:
    """Seeded, rule-driven fault decisions for every layer.

    Args:
        rules: The declarative fault programme.
        seed: Seed for the one RNG behind probabilistic triggers and
            random bit choices.  Same seed + same operation sequence =>
            byte-identical :attr:`schedule`.

    One injector instance is threaded through an execution context
    (disks + memory pool) and, separately, through an
    :class:`~repro.parallel.network.Interconnect`; all of them share
    the operation sequence, so a schedule is a total order over the
    run's faults.
    """

    def __init__(self, rules: Sequence[FaultRule] = (), seed: int = 0) -> None:
        self.rules = tuple(rules)
        for rule in self.rules:
            if not isinstance(rule, FaultRule):
                raise FaultConfigError(f"not a FaultRule: {rule!r}")
        self.seed = seed
        self.counters = InjectorCounters()
        self.schedule: list[FaultEvent] = []
        self._rng = random.Random(seed)
        self._eligible = [0] * len(self.rules)
        self._fires = [0] * len(self.rules)
        self._op_seq = 0

    # -- trigger machinery ------------------------------------------------

    def _fire(self, index: int, rule: FaultRule) -> bool:
        """Evaluate one eligible rule's triggers; count and decide."""
        self._eligible[index] += 1
        if rule.max_fires is not None and self._fires[index] >= rule.max_fires:
            return False
        if rule.every_nth is not None and self._eligible[index] % rule.every_nth != 0:
            return False
        if rule.probability < 1.0 and self._rng.random() >= rule.probability:
            return False
        self._fires[index] += 1
        self.counters.count(rule.kind)
        return True

    def _record(
        self,
        rule_index: int,
        rule: FaultRule,
        scope: str,
        op: str | None = None,
        device: str | None = None,
        page_no: int | None = None,
        detail: tuple = (),
    ) -> FaultEvent:
        event = FaultEvent(
            seq=len(self.schedule),
            op_seq=self._op_seq,
            rule_index=rule_index,
            kind=rule.kind,
            scope=scope,
            op=op,
            device=device,
            page_no=page_no,
            detail=detail,
        )
        self.schedule.append(event)
        return event

    # -- layer hooks ------------------------------------------------------

    def on_disk_op(
        self, device: str, page_no: int, op: str, page_bytes: int
    ) -> _DiskFault | None:
        """Decide the fate of one page transfer.

        Returns ``None`` (no fault -- the overwhelmingly common case)
        or a :class:`_DiskFault` the device applies: raise, corrupt,
        tear, or delay.  At most one rule fires per operation (first
        match wins, in rule order).
        """
        self._op_seq += 1
        for index, rule in enumerate(self.rules):
            if not rule.matches_disk(device, page_no, op):
                continue
            if not self._fire(index, rule):
                continue
            bit = rule.bit
            if rule.kind in ("corrupt", "torn") and bit is None:
                bit = self._rng.randrange(max(1, page_bytes * 8))
            detail: tuple = ()
            if rule.kind in ("corrupt", "torn"):
                detail = (("bit", bit), ("persistent", rule.persistent))
            elif rule.kind == "latency":
                detail = (("latency_ms", rule.latency_ms),)
            self._record(index, rule, "disk", op, device, page_no, detail)
            return _DiskFault(
                kind=rule.kind,
                rule=rule,
                bit=bit or 0,
                latency_ms=rule.latency_ms,
            )
        return None

    def on_network_send(self, sender: int, receiver: int) -> str | None:
        """Decide the fate of one interconnect batch: ``None`` (deliver),
        ``"drop"`` (lost -- the sender must retransmit), or
        ``"duplicate"`` (delivered twice)."""
        self._op_seq += 1
        for index, rule in enumerate(self.rules):
            if not rule.matches_network(sender, receiver):
                continue
            if not self._fire(index, rule):
                continue
            self._record(
                index, rule, "network",
                detail=(("sender", sender), ("receiver", receiver)),
            )
            return rule.kind
        return None

    def on_memory_allocate(self, pool, size: int, tag: str) -> None:
        """Decide the fate of one pool allocation.

        ``exhaust`` raises :class:`~repro.errors.MemoryPoolError` (the
        hash operators translate it into their overflow error, which
        the plan layer degrades into partitioned processing);
        ``pressure`` shrinks the pool's budget in place, so *later*
        allocations overflow and trigger the same degradation paths.
        """
        self._op_seq += 1
        for index, rule in enumerate(self.rules):
            if not rule.matches_memory(tag):
                continue
            if not self._fire(index, rule):
                continue
            # Allocation tags may carry per-process instance suffixes
            # ("quotient-bitmaps#7"); record only the base tag so the
            # schedule is byte-identical across processes and replays.
            base_tag = tag.split("#", 1)[0]
            if rule.kind == "pressure":
                new_budget = pool.apply_pressure(rule.pressure_factor)
                self._record(
                    index, rule, "memory",
                    detail=(("tag", base_tag), ("new_budget", new_budget)),
                )
                return
            self._record(
                index, rule, "memory", detail=(("tag", base_tag), ("size", size))
            )
            raise MemoryPoolError(
                f"injected memory fault: allocation of {size} bytes ({tag}) denied"
            )
        return

    # -- reporting --------------------------------------------------------

    @property
    def operations_seen(self) -> int:
        """Operations offered to the injector so far (all scopes)."""
        return self._op_seq

    def fires_of(self, rule_index: int) -> int:
        """How many times one rule has fired."""
        return self._fires[rule_index]

    def summary(self) -> dict:
        """JSON-ready injector summary for provenance / reports."""
        return {
            "enabled": True,
            "seed": self.seed,
            "rules": [rule.to_dict() for rule in self.rules],
            "operations_seen": self._op_seq,
            "faults_fired": dict(sorted(self.counters.by_kind.items())),
        }


def schedule_to_jsonl(events: Iterable[FaultEvent]) -> str:
    """Serialize a fault schedule as JSONL (one event per line).

    Keys are sorted and floats are emitted by ``json`` defaults, so the
    same schedule always yields byte-identical text -- the determinism
    contract the chaos suite pins.
    """
    return "".join(
        json.dumps(event.to_dict(), sort_keys=True) + "\n" for event in events
    )


def write_schedule_jsonl(path, events: Iterable[FaultEvent]) -> int:
    """Write a fault schedule to ``path``; returns the event count."""
    events = list(events)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(schedule_to_jsonl(events))
    return len(events)
