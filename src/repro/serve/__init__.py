"""repro.serve -- a concurrent query service over the storage engine.

The paper benchmarks one division at a time; this package serves many
concurrently -- deterministically.  Four cooperating pieces:

* :mod:`repro.serve.scheduler` -- cooperative generator-stepped tasks
  in virtual model-ms time, seeded interleaving, deadline/cancel via
  typed errors thrown into the task,
* :mod:`repro.serve.admission` -- memory grants reserved against the
  :class:`~repro.storage.memory.MemoryPool` budget *before* dispatch,
  bounded wait queue, load shedding,
* :mod:`repro.serve.cache` -- plan and result caches invalidated by
  monotonic relation versions (staleness impossible by construction),
* :mod:`repro.serve.service` -- the :class:`QueryService` front door:
  table locks, oracle shadows, leak auditing,
* :mod:`repro.serve.bench` -- the multi-client load harness behind
  ``repro serve``.
"""

from repro.serve.admission import (
    AdmissionController,
    MemoryGrant,
    estimate_grant_bytes,
)
from repro.serve.cache import (
    CachedResult,
    CacheStats,
    VersionedCache,
    plan_key,
    stored_table_names,
)
from repro.serve.scheduler import (
    CooperativeScheduler,
    Task,
    TaskState,
    VirtualClock,
    Wait,
)
from repro.serve.service import (
    DeleteRequest,
    InsertRequest,
    QueryRequest,
    QueryService,
    RequestOutcome,
    ServeResult,
    ServiceConfig,
    TableLockManager,
)

__all__ = [
    "AdmissionController",
    "MemoryGrant",
    "estimate_grant_bytes",
    "CachedResult",
    "CacheStats",
    "VersionedCache",
    "plan_key",
    "stored_table_names",
    "CooperativeScheduler",
    "Task",
    "TaskState",
    "VirtualClock",
    "Wait",
    "DeleteRequest",
    "InsertRequest",
    "QueryRequest",
    "QueryService",
    "RequestOutcome",
    "ServeResult",
    "ServiceConfig",
    "TableLockManager",
]
