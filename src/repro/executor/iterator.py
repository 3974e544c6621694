"""The open-next-close iterator protocol and the execution context.

"All relational algebra operators are implemented as iterators, i.e.,
they support a simple open-next-close protocol" (Section 5.1).  Here:

* :meth:`QueryIterator.open` prepares the operator (and opens its
  inputs); stop-and-go operators such as sort do their heavy lifting
  here,
* :meth:`QueryIterator.next_batch` returns the next non-empty list of
  output tuples, or ``[]`` when exhausted -- a fetch-free stretch at a
  time (see :meth:`next_batch`),
* :meth:`QueryIterator.next` returns one output tuple or ``None`` when
  exhausted; it hands out the batches of ``next_batch`` row by row,
* :meth:`BufferedIterator.unread` gives back the last rows of the
  batch just taken, when no page was fixed since,
* :meth:`QueryIterator.close` releases resources (and closes inputs).

The protocol is enforced with an explicit state machine so misuse is a
clear :class:`~repro.errors.ExecutionError` rather than silent garbage.

:class:`ExecContext` is the shared machinery an executing plan runs
against: storage configuration, buffer pool, I/O statistics, the CPU
operation counters, the main-memory pool for hash tables, and a temp
file allocator for sort runs and spooled partitions.
"""

from __future__ import annotations

import enum
import itertools
from typing import Iterator, Optional, Sequence

from repro.errors import ExecutionError
from repro.faults.retry import BackoffClock
from repro.metering import CpuCounters
from repro.obs.span import NULL_TRACER
from repro.relalg.relation import Relation
from repro.relalg.schema import Schema
from repro.relalg.tuples import Row
from repro.storage.buffer import BufferPool
from repro.storage.config import StorageConfig
from repro.storage.disk import SimulatedDisk
from repro.storage.heapfile import HeapFile
from repro.storage.memory import MemoryPool
from repro.storage.stats import NULL_IO_TRACE, IoStatistics


class ExecContext:
    """Everything a running plan shares: devices, meters, memory.

    Args:
        config: Physical storage parameters.
        memory_budget: Byte budget for in-memory hash tables and bit
            maps; ``None`` means unbounded.
        tracer: Optional :class:`repro.obs.span.Tracer` recording
            spans, metrics, and per-operator attribution; defaults to
            the no-op :data:`repro.obs.span.NULL_TRACER`.
        io_trace: Optional :class:`repro.obs.iotrace.IoEventLog`
            recording one event per physical page transfer; defaults
            to the zero-cost null sink
            (:data:`repro.storage.stats.NULL_IO_TRACE`).  When both a
            recording tracer and an event log are supplied, each event
            is stamped with the innermost executing operator.
        fault_injector: Optional
            :class:`repro.faults.injector.FaultInjector`; when given it
            is threaded through all three devices and the memory pool
            (see :meth:`attach_fault_injector`).  ``None`` (the
            default) leaves every fault hook on its zero-cost path.
        retry_policy: Optional
            :class:`repro.faults.retry.RetryPolicy` governing how the
            devices retry transient faults; defaults to
            :data:`repro.faults.retry.DEFAULT_RETRY_POLICY`.

    The context owns three devices:

    * ``data``  -- 8 KB pages, where base relations live,
    * ``temp``  -- 8 KB pages, for spooled intermediates and partitions,
    * ``runs``  -- 1 KB pages, for sort runs ("1 KB to allow high
      fan-in", Section 5.1).
    """

    def __init__(
        self,
        config: StorageConfig | None = None,
        memory_budget: int | None = None,
        storage_dir: str | None = None,
        tracer=None,
        io_trace=None,
        fault_injector=None,
        retry_policy=None,
    ) -> None:
        self.config = config or StorageConfig()
        #: Observability hook (repro.obs): the shared no-op NULL_TRACER
        #: by default, so un-profiled execution pays one flag test per
        #: protocol call; pass a repro.obs.Tracer to record spans,
        #: metrics, and per-operator meter attribution.
        self.tracer = NULL_TRACER if tracer is None else tracer
        #: Page-level I/O event log (repro.obs.iotrace): the shared
        #: no-op NULL_IO_TRACE by default, so un-traced execution pays
        #: one flag test per physical transfer and allocates nothing.
        self.io_trace = NULL_IO_TRACE if io_trace is None else io_trace
        if (
            self.io_trace.enabled
            and getattr(self.io_trace, "operator_provider", None) is None
        ):
            self.io_trace.operator_provider = getattr(
                self.tracer, "current_operator_label", None
            )
        self.io_stats = IoStatistics(self.config.io_weights, trace=self.io_trace)
        self.cpu = CpuCounters()
        self.pool = BufferPool(self.config)
        self.memory = MemoryPool(memory_budget)
        if storage_dir is None:
            # The paper's main-memory disk simulation.
            make_disk = lambda name, page_size: SimulatedDisk(
                name, page_size, self.io_stats
            )
        else:
            # The paper's alternative: "simulates a disk using a UNIX
            # file"; one backing file per device under storage_dir.
            import os

            from repro.storage.filedisk import FileBackedDisk

            os.makedirs(storage_dir, exist_ok=True)
            make_disk = lambda name, page_size: FileBackedDisk(
                name,
                page_size,
                os.path.join(storage_dir, f"{name}.disk"),
                self.io_stats,
            )
        self.data_disk = self.pool.register_device(
            make_disk("data", self.config.page_size)
        )
        self.temp_disk = self.pool.register_device(
            make_disk("temp", self.config.page_size)
        )
        self.run_disk = self.pool.register_device(
            make_disk("runs", self.config.sort_run_page_size)
        )
        self._temp_names = itertools.count()
        #: Fault-injection wiring (repro.faults): None by default, so
        #: every hook is a single ``is None`` test.  One BackoffClock
        #: is shared by all devices so retry waits aggregate per run.
        self.fault_injector = None
        self.backoff_clock = BackoffClock()
        if retry_policy is not None:
            for disk in (self.data_disk, self.temp_disk, self.run_disk):
                disk.retry_policy = retry_policy
        for disk in (self.data_disk, self.temp_disk, self.run_disk):
            disk.backoff_clock = self.backoff_clock
        if fault_injector is not None:
            self.attach_fault_injector(fault_injector)

    def attach_fault_injector(self, injector) -> None:
        """Thread one :class:`~repro.faults.injector.FaultInjector`
        through the context's devices and memory pool.

        Pass ``None`` to detach and restore the zero-cost paths.  The
        devices keep their retry policies and the shared
        :attr:`backoff_clock`.
        """
        self.fault_injector = injector
        for disk in (self.data_disk, self.temp_disk, self.run_disk):
            disk.injector = injector
        self.memory.injector = injector

    @property
    def fault_stats(self) -> dict:
        """Per-device fault / defense counters, keyed by device name."""
        return {
            disk.name: disk.fault_stats
            for disk in (self.data_disk, self.temp_disk, self.run_disk)
        }

    def close(self) -> None:
        """Release the context's devices (closes backing files)."""
        for disk in (self.data_disk, self.temp_disk, self.run_disk):
            disk.close()

    # -- temp files -----------------------------------------------------

    def temp_file(self, kind: str = "temp") -> HeapFile:
        """Create a scratch heap file.

        Args:
            kind: ``"temp"`` for 8 KB-page intermediates, ``"runs"``
                for 1 KB-page sort runs.
        """
        if kind == "runs":
            disk = self.run_disk
        elif kind == "temp":
            disk = self.temp_disk
        else:
            raise ExecutionError(f"unknown temp file kind {kind!r}")
        return HeapFile(self.pool, disk, name=f"{kind}-{next(self._temp_names)}")

    # -- meter access -----------------------------------------------------

    def io_cost_ms(self) -> float:
        """Total model I/O milliseconds so far (Table 3 weights)."""
        return self.io_stats.cost_ms()

    def reset_meters(self) -> None:
        """Zero the CPU counters, I/O statistics, and I/O event log
        (not the pool).

        The statistics and the event log are always reset *together*
        so they describe the same measurement window -- the
        precondition of the :mod:`repro.obs.iotrace` conservation
        check.
        """
        self.cpu.reset()
        self.io_stats.reset()
        self.io_trace.clear()


class _State(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    FINISHED = "finished"


class QueryIterator:
    """Base class for all operators: the open-next-close protocol.

    Subclasses implement ``_open``, ``_next_batch`` and optionally
    ``_close``; the public methods enforce the protocol state machine.
    ``_next`` is the adapter that serves :meth:`next` from those
    batches, and only :class:`BufferedIterator` replaces it.  An
    operator may be re-opened after :meth:`close` when its inputs
    support it.
    """

    def __init__(self, ctx: ExecContext, schema: Schema) -> None:
        self.ctx = ctx
        self.schema = schema
        self.rows_produced = 0
        self._state = _State.CLOSED
        self._ever_opened = False
        #: The rest of the batch :meth:`next` is handing out, if any.
        self._held: Iterator[Row] | None = None

    # -- public protocol ---------------------------------------------------

    def open(self) -> None:
        """Prepare the operator for producing tuples."""
        if self._state is not _State.CLOSED:
            raise ExecutionError(
                f"{type(self).__name__}.open() called in state {self._state.value}"
            )
        self.rows_produced = 0
        tracer = self.ctx.tracer
        try:
            if tracer.enabled:
                tracer.operator_enter(self, "open")
                try:
                    self._open()
                finally:
                    tracer.operator_exit(self, "open")
            else:
                self._open()
        except BaseException:
            # Every ``_open`` cleans up after its own failure (closes
            # the children it opened, frees the tables it charged), so
            # the operator holds nothing -- but unwind paths above us
            # (a ``finally: root.close()``, an overflow fallback) will
            # still call ``close()``.  Count the attempt so that call
            # is the idempotent no-op, not a protocol error.
            self._ever_opened = True
            raise
        self._state = _State.OPEN
        self._ever_opened = True

    def next(self) -> Optional[Row]:
        """Produce the next tuple, or ``None`` when exhausted.

        The tuple comes from the batch the last pull returned; the
        operator is pulled again (``_next_batch``) only when that batch
        is used up.
        """
        if self._state is _State.FINISHED:
            return None
        if self._state is not _State.OPEN:
            raise ExecutionError(
                f"{type(self).__name__}.next() called in state {self._state.value}"
            )
        tracer = self.ctx.tracer
        if tracer.enabled:
            tracer.operator_enter(self, "next")
            try:
                row = self._next()
            finally:
                tracer.operator_exit(self, "next")
        else:
            row = self._next()
        if row is None:
            self._state = _State.FINISHED
        else:
            self.rows_produced += 1
        return row

    def next_batch(self) -> list[Row]:
        """Produce the next non-empty list of tuples, or ``[]`` when
        exhausted.

        A batch is what the operator can hand out without fixing
        another page: a decoded page of a scan, one fetch-free stretch
        of a spilled sort's merge, the rest of an in-memory list.  Its
        tuples are the ones :meth:`next` would return, in the same
        order, with the same meter charges and the same page fixes, and
        the two calls may be mixed: after :meth:`next` the call returns
        the rest of the batch ``next()`` was handing out, without
        pulling the operator.  A consumer that finishes each batch
        before it asks for the next therefore fixes pages in the order
        it would pulling row by row.  The list is the caller's to read,
        not to modify.
        """
        if self._state is _State.FINISHED:
            return []
        if self._state is not _State.OPEN:
            raise ExecutionError(
                f"{type(self).__name__}.next_batch() called in state {self._state.value}"
            )
        held = self._held
        if held is not None:
            self._held = None
            rows = list(held)
            if rows:
                self.rows_produced += len(rows)
                return rows
        tracer = self.ctx.tracer
        if tracer.enabled:
            tracer.operator_enter(self, "next")
            try:
                rows = self._next_batch()
            finally:
                tracer.operator_exit(self, "next")
        else:
            rows = self._next_batch()
        if rows:
            self.rows_produced += len(rows)
        else:
            self._state = _State.FINISHED
        return rows

    def close(self) -> None:
        """Release resources; **idempotent** once the operator has ever
        been opened.

        A second ``close()`` after a successful close is a no-op rather
        than an error: cancellation and error-unwind paths (the
        scheduler throwing :class:`~repro.errors.QueryCancelledError`
        into a task, :func:`open_all`'s partial unwind, a plan-level
        ``close()`` after an operator already tore itself down) can
        each reach an operator that another path closed first, and a
        raising close used to abort the unwind halfway -- leaving
        *sibling* subtrees open (leaked fixed frames) or, for operators
        whose ``_close`` unfixes pages, double-unfixing.  The state
        machine guarantees ``_close`` runs at most once per ``open``.

        Closing an operator that was *never* opened is still a protocol
        error: it has no resources, so the call is a caller bug.
        """
        if self._state is _State.CLOSED:
            if not self._ever_opened:
                raise ExecutionError(
                    f"{type(self).__name__}.close() called while closed"
                )
            return  # idempotent: already closed after a previous open
        tracer = self.ctx.tracer
        if tracer.enabled:
            tracer.operator_enter(self, "close")
            try:
                self._close()
            finally:
                tracer.operator_exit(self, "close")
        else:
            self._close()
        self._state = _State.CLOSED
        self._held = None

    # -- subclass hooks -------------------------------------------------------

    def _open(self) -> None:
        raise NotImplementedError

    def _next_batch(self) -> list[Row]:
        raise NotImplementedError

    def _next(self) -> Optional[Row]:
        """The adapter: hand out the last batch row by row, and pull
        the next one when it is used up."""
        held = self._held
        if held is not None:
            row = next(held, None)
            if row is not None:
                return row
        batch = self._next_batch()
        if not batch:
            self._held = None
            return None
        self._held = held = iter(batch)
        return next(held)

    def _close(self) -> None:
        """Default: nothing to release."""

    # -- conveniences ------------------------------------------------------------

    def __iter__(self) -> Iterator[Row]:
        """Drain the (already opened) operator as a Python iterator."""
        while True:
            row = self.next()
            if row is None:
                return
            yield row

    def children(self) -> tuple["QueryIterator", ...]:
        """Direct input operators, for plan display."""
        return ()

    def explain(self, indent: int = 0, analyze: bool = False) -> str:
        """Render the operator subtree as an indented plan.

        With ``analyze=True`` each line carries the number of rows the
        operator has produced so far -- call after draining the plan
        for an EXPLAIN ANALYZE view.
        """
        label = self.describe()
        if analyze:
            label = f"{label}  [rows={self.rows_produced}]"
        lines = ["  " * indent + label]
        lines.extend(
            child.explain(indent + 1, analyze=analyze) for child in self.children()
        )
        return "\n".join(lines)

    def describe(self) -> str:
        """One-line operator description used by :meth:`explain`."""
        return type(self).__name__


class BufferedIterator(QueryIterator):
    """An operator that produces its tuples a list at a time.

    ``_next`` hands out the buffered list tuple by tuple and
    ``_next_batch`` hands out what is left of it; either one calls
    :meth:`_refill` for the next list once the buffer is empty, so both
    fix the same pages on the same tuple.  Comp charges that a
    row-at-a-time operator would make tuple by tuple can ride along as
    ``charges``, one entry per tuple, charged as the tuple is handed
    out: a consumer that stops early is charged only for what it took.
    That is why this class replaces the base class's ``_next`` adapter,
    which takes a whole batch, with its own: a spilled sort read row by
    row and left mid-stretch (a merge semi-join's inner input) pays
    only for the rows taken.
    Tuples handed out from the current list can be given back
    (:meth:`unread`), which rewinds the list and refunds their charges.
    ``_open`` sets the first buffer with :meth:`_set_buffer`.
    """

    def __init__(self, ctx: ExecContext, schema: Schema) -> None:
        super().__init__(ctx, schema)
        self._set_buffer([])

    def _set_buffer(self, rows: list[Row], charges: list[int] | None = None) -> None:
        self._buffer: list[Row] = rows
        self._charges: list[int] | None = charges
        self._position = 0

    def _refill(self) -> bool:
        """Buffer the next non-empty list of tuples; ``False`` at the
        end.  Default: there is none."""
        return False

    def _next(self) -> Optional[Row]:
        if self._position == len(self._buffer) and not self._refill():
            return None
        position = self._position
        self._position = position + 1
        if self._charges is not None:
            self.ctx.cpu.comparisons += self._charges[position]
        return self._buffer[position]

    def _next_batch(self) -> list[Row]:
        if self._position == len(self._buffer) and not self._refill():
            return []
        rows, charges, position = self._buffer, self._charges, self._position
        self._position = len(rows)
        if charges is not None:
            self.ctx.cpu.comparisons += sum(charges[position:])
        return rows[position:] if position else rows

    def unread(self, count: int) -> None:
        """Give back the last ``count`` rows handed out, so the next
        call returns them again.

        Legal only for rows taken since the operator last fetched: the
        hand-back then undoes exactly the per-row Comp and
        ``rows_produced`` of those rows, since a fetch-free stretch did
        nothing else for them.  Anything else -- more rows than that, a
        call after a fetch or at the end -- raises
        :class:`~repro.errors.ExecutionError`.  Like :meth:`next`, the
        call runs in the operator's own tracer frame, so EXPLAIN ANALYZE
        books the refund, and the lowered row count, where the charge
        was booked.
        """
        if self._state is not _State.OPEN:
            raise ExecutionError(
                f"{type(self).__name__}.unread() called in state {self._state.value}"
            )
        tracer = self.ctx.tracer
        if tracer.enabled:
            tracer.operator_enter(self, "unread")
            try:
                self._unread(count)
            finally:
                tracer.operator_exit(self, "unread")
        else:
            self._unread(count)

    def _unread(self, count: int) -> None:
        position = self._position
        if not 0 <= count <= position:
            raise ExecutionError(
                f"{type(self).__name__} cannot give back {count} rows: "
                f"{position} were taken since its last fetch"
            )
        self._position = position - count
        self.rows_produced -= count
        if self._charges is not None:
            self.ctx.cpu.comparisons -= sum(self._charges[position - count : position])

    def _close(self) -> None:
        self._set_buffer([])


def drain(operator: QueryIterator) -> list[Row]:
    """Every remaining tuple of an open operator, pulled batch by batch."""
    return [row for batch in iter(operator.next_batch, []) for row in batch]


def open_all(operators: Sequence[QueryIterator]) -> None:
    """Open several child operators, unwinding cleanly on failure.

    If ``open()`` of a later child raises, every child opened so far is
    closed (in reverse order) before the exception propagates -- the
    state-machine guarantee multi-input operators need so a failed
    ``_open`` never leaks an open subtree.  A close failure during the
    unwind is suppressed in favour of the original exception.
    """
    opened: list[QueryIterator] = []
    try:
        for operator in operators:
            operator.open()
            opened.append(operator)
    except BaseException:
        for operator in reversed(opened):
            try:
                operator.close()
            except Exception:  # noqa: BLE001 - the original error wins
                pass
        raise


def run_to_relation(operator: QueryIterator, name: str = "") -> Relation:
    """Open, drain, and close an operator, collecting a Relation."""
    operator.open()
    try:
        rows = drain(operator)
    finally:
        operator.close()
    return Relation(operator.schema, rows, name=name)
