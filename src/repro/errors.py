"""Exception hierarchy for the ``repro`` package.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch one type to handle any
library-level failure while letting genuine programming errors
(``TypeError``, ``KeyError``, ...) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class SchemaError(ReproError):
    """A schema is malformed or two schemas are incompatible.

    Raised, for example, when a projection names a column that does not
    exist, or when a division is attempted whose divisor attributes are
    not a subset of the dividend attributes.
    """


class DivisionError(ReproError):
    """A relational-division request is invalid.

    Raised when the dividend/divisor schemas do not satisfy the
    preconditions of the division operator (the divisor attributes must
    be a proper, non-empty subset of the dividend attributes).
    """


class StorageError(ReproError):
    """Base class for storage-layer failures."""


class DiskError(StorageError):
    """An I/O request addressed a page outside the device, or a device
    was used after being closed."""


class DiskFaultError(DiskError):
    """An injected (or, in principle, real) device failure.

    Args:
        message: Human-readable description.
        transient: ``True`` when a retry may succeed (the
            :mod:`repro.faults` retry wrapper re-issues the transfer
            with capped exponential backoff); ``False`` for permanent
            faults, which propagate immediately.
    """

    def __init__(self, message: str, transient: bool = True) -> None:
        super().__init__(message)
        self.transient = transient


class ChecksumError(StorageError):
    """A page image failed its CRC32 verification on read.

    Raised by :class:`repro.storage.diskbase.PagedDiskBase` when the
    bytes coming back from the device do not match the checksum
    recorded when the page was last written -- the defense that turns
    silent corruption (bit flips, torn writes) into a typed error.
    """


class BufferPoolError(StorageError):
    """The buffer pool cannot satisfy a request.

    Raised when every frame is fixed and the pool has exhausted its
    memory budget, or when unfixing a page that is not fixed.
    """


class PageError(StorageError):
    """A slotted-page operation failed (record too large, bad slot...)."""


class RecordNotFoundError(StorageError):
    """A record identifier does not resolve to a live record."""


class MemoryPoolError(StorageError):
    """The main-memory manager ran out of its configured budget."""

    #: Allocations of a :meth:`~repro.storage.memory.MemoryPool.allocate_run`
    #: booked before the one that failed.
    allocated: int = 0


class BTreeError(StorageError):
    """A B+-tree structural invariant would be violated."""


class ExecutionError(ReproError):
    """A query-evaluation operator was used incorrectly.

    Raised for protocol violations of the open-next-close iterator
    contract, e.g. calling ``next()`` on an operator that has not been
    opened.
    """


class HashTableOverflowError(ExecutionError):
    """An in-memory hash table exceeded its memory budget.

    The partitioned division driver in :mod:`repro.core.partitioned`
    catches this to fall back to multi-phase processing; user code that
    calls the single-phase operators directly sees it as an error.
    """


class PartitioningError(ReproError):
    """A partitioned or parallel execution was configured incorrectly."""


class NetworkFaultError(PartitioningError):
    """The interconnect gave up on a batch.

    Raised when a send exhausted its retransmission budget against
    injected drop faults -- the typed surface of a partitioned network,
    as opposed to silently losing tuples.
    """


class FaultConfigError(ReproError):
    """A fault-injection rule or injector was configured incorrectly."""


class ServeError(ReproError):
    """Base class for query-service (``repro.serve``) failures."""


class QueryTimeoutError(ServeError):
    """A served query exceeded its session deadline.

    Raised *into* the query's task by the cooperative scheduler at the
    first step boundary past the deadline (virtual model time), so the
    task's ``finally`` blocks release every grant, lock, and iterator
    before the error surfaces to the client.
    """


class QueryCancelledError(ServeError):
    """A served query was cancelled before completing.

    Like :class:`QueryTimeoutError`, delivered at a step boundary so
    cancellation unwinds through the task's cleanup path (the reason
    ``QueryIterator.close()`` must be idempotent).
    """


class ServiceOverloadError(ServeError):
    """The service shed load instead of queueing another request.

    Raised at submit time when the admission controller's bounded wait
    queue is full -- the backpressure signal that replaces mid-build
    :class:`MemoryPoolError` overflow under concurrent load.
    """


class SchedulerError(ServeError):
    """The cooperative scheduler was misused or deadlocked.

    Raised when every live task is parked on a condition no runnable
    task can satisfy, or on protocol misuse (stepping a finished task).
    """


class WorkloadError(ReproError):
    """A workload generator received inconsistent parameters."""


class ExperimentError(ReproError):
    """An experiment harness was asked for an unknown experiment or an
    inconsistent configuration."""
