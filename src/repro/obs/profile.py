"""Operator-tree profiles: the reproduction's ``EXPLAIN ANALYZE``.

The tracer's :class:`OperatorAccounting` watches every
open/next/close call of every :class:`~repro.executor.iterator.QueryIterator`
and attributes *deltas* of the shared meters -- the Table 1
Comp/Hash/Move/Bit counters, buffer-pool hits/misses/evictions, and the
Table 3-costed per-device I/O statistics -- to the innermost operator
executing at the time.  Attribution is therefore **exclusive** (self
time, not self+children), and the per-operator deltas sum exactly to
the run's global meters: nothing is counted twice and nothing that
happens inside the plan escapes.

:class:`QueryProfile` assembles those per-operator records with the
run totals and prices them with :class:`~repro.costmodel.units.CostUnits`
(Table 1) -- producing the per-iterator rows-in/out, next() calls,
operation deltas, buffer and I/O activity, and model-milliseconds view
that ``repro profile`` and ``Query.explain_analyze()`` render.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.costmodel.units import CostUnits, PAPER_UNITS
from repro.metering import CpuCounters
from repro.storage.stats import DeviceCounters, IoWeights

#: The calls of the iterator protocol; ``unread`` is the batch
#: hand-back (:meth:`repro.executor.iterator.BufferedIterator.unread`).
PHASES = ("open", "next", "unread", "close")


@dataclass
class _Checkpoint:
    """A reading of every meter of one execution context."""

    ctx_id: int
    at_s: float
    cpu: CpuCounters
    io: dict  # device name -> DeviceCounters snapshot
    weights: IoWeights
    buffer: tuple  # (fixes, misses, evictions, writebacks)


@dataclass
class OperatorStats:
    """Exclusive (self-only) measurements for one plan operator.

    Attributes:
        label: ``describe()`` of the operator (refreshed on exit, so
            late-bound details like partition counts are current).
        op_class: Operator class name.
        calls: Protocol calls seen, keyed by phase (open/next/close).
        rows_out: Rows the operator produced (its ``rows_produced``).
        cpu: Comp/Hash/Move/Bit performed *by this operator itself*
            (children excluded -- they have their own records).
        wall_s: Wall-clock seconds attributed to this operator.
        io: Physical I/O performed by this operator, summed over
            devices; ``io_by_device`` keeps the per-device transfers.
        io_ms: Table 3 model milliseconds for that I/O.
        buffer: Buffer-pool fixes/misses/evictions/writebacks deltas.
        children: Input operators, in first-use order.
    """

    label: str
    op_class: str
    calls: dict = field(default_factory=dict)
    rows_out: int = 0
    cpu: CpuCounters = field(default_factory=CpuCounters)
    wall_s: float = 0.0
    io: DeviceCounters = field(default_factory=DeviceCounters)
    io_by_device: dict = field(default_factory=dict)
    io_ms: float = 0.0
    buffer: dict = field(default_factory=lambda: {
        "fixes": 0, "misses": 0, "evictions": 0, "writebacks": 0,
    })
    children: list["OperatorStats"] = field(default_factory=list)

    @property
    def next_calls(self) -> int:
        """How many times ``next()`` was invoked on this operator."""
        return self.calls.get("next", 0)

    def cpu_model_ms(self, units: CostUnits = PAPER_UNITS) -> float:
        """This operator's own CPU work in Table 1 model milliseconds."""
        return units.cpu_cost_ms(self.cpu)

    def total_model_ms(self, units: CostUnits = PAPER_UNITS) -> float:
        """Self CPU + self I/O model milliseconds."""
        return self.cpu_model_ms(units) + self.io_ms

    def walk(self) -> Iterator["OperatorStats"]:
        """This node and every descendant, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self, units: CostUnits = PAPER_UNITS) -> dict:
        """JSON-ready representation of the subtree."""
        return {
            "operator": self.op_class,
            "label": self.label,
            "rows_out": self.rows_out,
            "calls": dict(self.calls),
            "cpu": {
                "comparisons": self.cpu.comparisons,
                "hashes": self.cpu.hashes,
                "moves": self.cpu.moves,
                "bit_ops": self.cpu.bit_ops,
            },
            "cpu_model_ms": self.cpu_model_ms(units),
            "io": {
                "reads": self.io.reads,
                "writes": self.io.writes,
                "seeks": self.io.seeks,
                "bytes": self.io.bytes_total,
                "transfers_by_device": dict(self.io_by_device),
            },
            "io_model_ms": self.io_ms,
            "buffer": dict(self.buffer),
            "wall_ms": self.wall_s * 1e3,
            "children": [child.to_dict(units) for child in self.children],
        }


class OperatorAccounting:
    """Charges meter deltas to the innermost executing operator.

    Driven by the :class:`~repro.executor.iterator.QueryIterator`
    protocol hooks via :meth:`~repro.obs.span.Tracer.operator_enter` /
    ``operator_exit``.  Between two consecutive hook events, every
    meter tick belongs to the operator on top of the stack; entering a
    child first settles the parent's account.
    """

    def __init__(self, clock) -> None:
        self.clock = clock
        self.roots: list[OperatorStats] = []
        self._stats: dict[int, OperatorStats] = {}
        self._keepalive: list = []  # pin operators so id() stays unique
        self._stack: list[OperatorStats] = []
        self._last: Optional[_Checkpoint] = None

    # -- hook entry points ---------------------------------------------

    def enter(self, operator, phase: str) -> None:
        """An operator protocol call (``phase``) is starting."""
        now = self._checkpoint(operator.ctx)
        self._settle(now)
        stats = self._stats.get(id(operator))
        if stats is None:
            stats = OperatorStats(
                label=operator.describe(), op_class=type(operator).__name__
            )
            self._stats[id(operator)] = stats
            self._keepalive.append(operator)
            if self._stack:
                self._stack[-1].children.append(stats)
            else:
                self.roots.append(stats)
        stats.calls[phase] = stats.calls.get(phase, 0) + 1
        self._stack.append(stats)
        self._last = now

    def exit(self, operator, phase: str) -> None:
        """The matching protocol call is ending."""
        now = self._checkpoint(operator.ctx)
        self._settle(now)
        stats = self._stack.pop()
        stats.rows_out = operator.rows_produced
        stats.label = operator.describe()
        self._last = now

    def current(self) -> Optional[OperatorStats]:
        """The operator currently on top of the execution stack."""
        return self._stack[-1] if self._stack else None

    # -- internals -----------------------------------------------------

    def _checkpoint(self, ctx) -> _Checkpoint:
        pool_stats = ctx.pool.stats
        return _Checkpoint(
            ctx_id=id(ctx),
            at_s=self.clock.now(),
            cpu=ctx.cpu.snapshot(),
            io=ctx.io_stats.snapshot(),
            weights=ctx.io_stats.weights,
            buffer=(
                pool_stats.fixes,
                pool_stats.misses,
                pool_stats.evictions,
                pool_stats.writebacks,
            ),
        )

    def _settle(self, now: _Checkpoint) -> None:
        """Charge everything since the last checkpoint to the stack top."""
        then = self._last
        if not self._stack or then is None or then.ctx_id != now.ctx_id:
            return
        stats = self._stack[-1]
        stats.wall_s += now.at_s - then.at_s
        stats.cpu.merge(now.cpu.delta_since(then.cpu))
        for device, current in now.io.items():
            previous = then.io.get(device, DeviceCounters())
            reads = current.reads - previous.reads
            writes = current.writes - previous.writes
            seeks = current.seeks - previous.seeks
            bytes_read = current.bytes_read - previous.bytes_read
            bytes_written = current.bytes_written - previous.bytes_written
            if not (reads or writes or seeks or bytes_read or bytes_written):
                continue
            stats.io.reads += reads
            stats.io.writes += writes
            stats.io.seeks += seeks
            stats.io.bytes_read += bytes_read
            stats.io.bytes_written += bytes_written
            stats.io_by_device[device] = (
                stats.io_by_device.get(device, 0) + reads + writes
            )
            stats.io_ms += now.weights.cost_ms(
                seeks, reads + writes, bytes_read + bytes_written
            )
        for key, index in (
            ("fixes", 0), ("misses", 1), ("evictions", 2), ("writebacks", 3),
        ):
            stats.buffer[key] += now.buffer[index] - then.buffer[index]


@dataclass
class QueryProfile:
    """A finished run's operator tree plus its global meters.

    The invariant the tests pin down: summing ``cpu`` over
    :meth:`all_operators` reproduces :attr:`cpu` exactly (and likewise
    for the I/O model milliseconds, modulo float addition order).
    """

    roots: list
    cpu: CpuCounters
    io_ms: float
    wall_s: float
    units: CostUnits = PAPER_UNITS
    buffer: dict = field(default_factory=dict)
    metrics: object | None = None
    #: Planner decisions (repro.plan.planner.DivisionDecision) made
    #: while compiling the profiled plan, in compile order; rendered as
    #: header lines so EXPLAIN ANALYZE shows plan-time choices next to
    #: run-time measurements.
    decisions: list = field(default_factory=list)

    def all_operators(self) -> Iterator[OperatorStats]:
        """Every operator record, pre-order across the roots."""
        for root in self.roots:
            yield from root.walk()

    def operator_cpu_total(self) -> CpuCounters:
        """Sum of the per-operator (exclusive) CPU deltas."""
        total = CpuCounters()
        for stats in self.all_operators():
            total.merge(stats.cpu)
        return total

    def operator_io_ms_total(self) -> float:
        """Sum of the per-operator I/O model milliseconds."""
        return sum(stats.io_ms for stats in self.all_operators())

    @property
    def cpu_model_ms(self) -> float:
        """Global Table 1 CPU model milliseconds."""
        return self.units.cpu_cost_ms(self.cpu)

    @property
    def total_model_ms(self) -> float:
        """Global CPU + I/O model milliseconds (the Table 4 metric)."""
        return self.cpu_model_ms + self.io_ms

    # -- rendering -----------------------------------------------------

    def render(self) -> str:
        """The EXPLAIN ANALYZE tree as indented text."""
        lines = [
            "EXPLAIN ANALYZE  (self-only deltas; Table 1 CPU + Table 3 I/O model ms)",
            "total: {:.3f} model ms  (cpu {:.3f} + io {:.3f})   wall {:.3f} ms".format(
                self.total_model_ms, self.cpu_model_ms, self.io_ms, self.wall_s * 1e3
            ),
            "       Comp={:,} Hash={:,} Move={:,.3f} Bit={:,}".format(
                self.cpu.comparisons, self.cpu.hashes, self.cpu.moves, self.cpu.bit_ops
            ),
        ]
        for decision in self.decisions:
            lines.extend(decision.render().splitlines())
        for root in self.roots:
            lines.extend(self._render_node(root, prefix="", is_last=True, is_root=True))
        return "\n".join(lines)

    def _render_node(
        self, node: OperatorStats, prefix: str, is_last: bool, is_root: bool = False
    ) -> list[str]:
        connector = "" if is_root else ("└─ " if is_last else "├─ ")
        line = (
            f"{prefix}{connector}{node.label}"
            f"  rows={node.rows_out} next={node.next_calls}"
            f"  cpu[Comp={node.cpu.comparisons} Hash={node.cpu.hashes}"
            f" Move={node.cpu.moves:.3f} Bit={node.cpu.bit_ops}]"
            f"  cpu_ms={node.cpu_model_ms(self.units):.3f}"
            f"  io_ms={node.io_ms:.3f}"
            f"  buf[fix={node.buffer['fixes']} miss={node.buffer['misses']}"
            f" evict={node.buffer['evictions']}]"
            f"  wall_ms={node.wall_s * 1e3:.3f}"
        )
        lines = [line]
        child_prefix = prefix if is_root else prefix + ("   " if is_last else "│  ")
        for index, child in enumerate(node.children):
            lines.extend(
                self._render_node(
                    child, child_prefix, is_last=index == len(node.children) - 1
                )
            )
        return lines

    def __str__(self) -> str:
        return self.render()

    def to_dict(self) -> dict:
        """JSON-ready representation (operators, totals, buffer)."""
        return {
            "totals": {
                "cpu": {
                    "comparisons": self.cpu.comparisons,
                    "hashes": self.cpu.hashes,
                    "moves": self.cpu.moves,
                    "bit_ops": self.cpu.bit_ops,
                },
                "cpu_model_ms": self.cpu_model_ms,
                "io_model_ms": self.io_ms,
                "total_model_ms": self.total_model_ms,
                "wall_ms": self.wall_s * 1e3,
            },
            "buffer": dict(self.buffer),
            "planner": [
                {
                    "strategy": decision.strategy,
                    "estimated_ms": decision.estimated_ms,
                    "quotient": list(decision.quotient_names),
                }
                for decision in self.decisions
            ],
            "operators": [root.to_dict(self.units) for root in self.roots],
        }


def build_profile(
    tracer,
    ctx=None,
    units: CostUnits = PAPER_UNITS,
    cpu: CpuCounters | None = None,
    io_ms: float | None = None,
    wall_s: float | None = None,
    decisions: list | None = None,
) -> QueryProfile:
    """Assemble a :class:`QueryProfile` from a tracer (and its context).

    Args:
        tracer: A recording :class:`~repro.obs.span.Tracer` whose
            operator accounting observed the run.
        ctx: The execution context; supplies the global meters when the
            explicit ``cpu`` / ``io_ms`` overrides are not given (use
            the overrides when the context outlives the measured run).
        units: Table 1 weights used for model milliseconds.
        cpu: Global CPU counters for the run window.
        io_ms: Global Table 3 I/O milliseconds for the run window.
        wall_s: Wall-clock seconds for the run window.
        decisions: Planner decisions to attach to the profile (see
            :class:`repro.plan.planner.DivisionDecision`).
    """
    roots = list(tracer.operators.roots) if getattr(tracer, "enabled", False) else []
    if cpu is None:
        cpu = ctx.cpu.snapshot() if ctx is not None else CpuCounters()
    if io_ms is None:
        io_ms = ctx.io_cost_ms() if ctx is not None else 0.0
    if wall_s is None:
        # Exclusive wall sums to inclusive wall over the whole tree.
        wall_s = sum(s.wall_s for root in roots for s in root.walk())
    buffer: dict = {}
    if ctx is not None:
        stats = ctx.pool.stats
        buffer = {
            "fixes": stats.fixes,
            "misses": stats.misses,
            "evictions": stats.evictions,
            "writebacks": stats.writebacks,
            "hit_ratio": stats.hit_ratio,
        }
    return QueryProfile(
        roots=roots,
        cpu=cpu,
        io_ms=io_ms,
        wall_s=wall_s,
        units=units,
        buffer=buffer,
        metrics=getattr(tracer, "metrics", None),
        decisions=list(decisions) if decisions else [],
    )
