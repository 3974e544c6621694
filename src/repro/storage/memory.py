"""The main-memory manager.

The paper's hash algorithms "use the file system's memory manager to
allocate space for hash tables, bit maps, and chain elements"
(Section 5.1).  :class:`MemoryPool` is that manager: a byte-budgeted
allocator that the hash-division operator charges for every divisor
entry, quotient candidate, chain element, and bit map.

Exhausting the pool raises
:class:`~repro.errors.MemoryPoolError`; the single-phase hash operators
translate that into
:class:`~repro.errors.HashTableOverflowError`, which the partitioned
driver in :mod:`repro.core.partitioned` handles by switching to
multi-phase processing (Section 3.4).

No real memory is reserved -- the pool is an accounting device that
makes the simulated experiments respect the paper's memory limits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Sequence

from repro.errors import MemoryPoolError

#: Bookkeeping bytes charged per hash-table chain element: next pointer,
#: record identifier, buffer address, and the divisor number or bit-map
#: pointer (Section 5.1 lists exactly these fields).
CHAIN_ELEMENT_BYTES = 32

#: Bytes charged per hash-table bucket header (the bucket array slot).
BUCKET_HEADER_BYTES = 8


@dataclass
class MemoryPoolStats:
    """Aggregate allocation statistics for one pool."""

    peak_bytes: int = 0
    total_allocations: int = 0
    by_tag: dict = field(default_factory=dict)


class MemoryPool:
    """A byte-budgeted allocator with tagged allocations.

    Live bytes are kept per tag: operators release a whole hash table
    by its tag (:meth:`free_all`), never one allocation at a time.

    Args:
        budget: Maximum live bytes; ``None`` means unbounded (useful
            for oracles and tests that should never overflow).
    """

    def __init__(self, budget: int | None = None) -> None:
        if budget is not None and budget <= 0:
            raise MemoryPoolError("memory budget must be positive (or None)")
        self.budget = budget
        self.stats = MemoryPoolStats()
        #: Optional :class:`repro.faults.injector.FaultInjector`; when
        #: set, every allocation is offered to it first (``exhaust``
        #: raises :class:`MemoryPoolError`, ``pressure`` shrinks the
        #: budget via :meth:`apply_pressure`).
        self.injector = None
        #: Times :meth:`apply_pressure` shrank the budget.
        self.pressure_events = 0
        self._live: dict[str, int] = {}
        self._in_use = 0

    @property
    def bytes_in_use(self) -> int:
        """Currently allocated bytes."""
        return self._in_use

    @property
    def bytes_free(self) -> int | None:
        """Remaining budget, or ``None`` when unbounded."""
        if self.budget is None:
            return None
        return self.budget - self._in_use

    def can_allocate(self, size: int) -> bool:
        """True when an allocation of ``size`` bytes would succeed."""
        return self.budget is None or self._in_use + size <= self.budget

    @property
    def live_tags(self) -> Mapping[str, int]:
        """Read-only view: live bytes per tag with unreleased allocations."""
        return MappingProxyType(self._live)

    def allocate(self, size: int, tag: str = "untagged") -> None:
        """Reserve ``size`` bytes under ``tag``.

        Raises:
            MemoryPoolError: when the allocation would exceed the budget.
        """
        if size < 0:
            raise MemoryPoolError(f"allocation size must be >= 0, got {size}")
        if self.injector is not None:
            self.injector.on_memory_allocate(self, size, tag)
        if not self.can_allocate(size):
            raise MemoryPoolError(
                f"memory pool exhausted: {self._in_use} bytes in use, "
                f"{size} requested ({tag}), budget {self.budget}"
            )
        self._live[tag] = self._live.get(tag, 0) + size
        self._in_use += size
        self.stats.total_allocations += 1
        self.stats.by_tag[tag] = self.stats.by_tag.get(tag, 0) + size
        self.stats.peak_bytes = max(self.stats.peak_bytes, self._in_use)

    def allocate_run(self, pattern: Sequence[tuple[int, str]], count: int) -> None:
        """Book ``count`` repeats of ``pattern``, a list of
        ``(size, tag)`` allocations, in order, as :meth:`allocate` would
        one at a time.

        Without an injector the run is booked in closed form: the
        first allocation that would exceed the budget is found by
        arithmetic, the allocations before it are booked, and it fails
        with the message :meth:`allocate` gives.  With an injector
        every allocation is offered to it in turn through
        :meth:`allocate`, so the fault schedule does not change.

        Raises:
            MemoryPoolError: for the first allocation that fails; its
                ``allocated`` attribute counts the allocations of the
                run booked before it.
        """
        if self.injector is not None or any(size < 0 for size, _ in pattern):
            booked = 0
            try:
                for _ in range(count):
                    for size, tag in pattern:
                        self.allocate(size, tag)
                        booked += 1
            except MemoryPoolError as exc:
                exc.allocated = booked
                raise
            return
        if count == 0:
            return
        repeats, failing = count, None
        if self.budget is not None:
            room = self.budget - self._in_use
            per_repeat = sum(size for size, _ in pattern)
            if room < 0 or per_repeat * count > room:
                # Whole repeats that fit, then the pattern walked to the
                # allocation that does not.
                repeats = room // per_repeat if per_repeat and room >= 0 else 0
                used = repeats * per_repeat
                for index, (size, _) in enumerate(pattern):
                    if used + size > room:
                        failing = index
                        break
                    used += size
        self._book_run(pattern, repeats, failing or 0)
        if failing is not None:
            size, tag = pattern[failing]
            exc = MemoryPoolError(
                f"memory pool exhausted: {self._in_use} bytes in use, "
                f"{size} requested ({tag}), budget {self.budget}"
            )
            exc.allocated = repeats * len(pattern) + failing
            raise exc

    def _book_run(self, pattern: Sequence[tuple[int, str]], repeats: int, extra: int) -> None:
        """Book ``repeats`` whole repeats of ``pattern``, then its first
        ``extra`` allocations."""
        live, by_tag = self._live, self.stats.by_tag
        for index, (size, tag) in enumerate(pattern):
            times = repeats + (index < extra)
            if times:
                live[tag] = live.get(tag, 0) + size * times
                by_tag[tag] = by_tag.get(tag, 0) + size * times
                self._in_use += size * times
        self.stats.total_allocations += repeats * len(pattern) + extra
        self.stats.peak_bytes = max(self.stats.peak_bytes, self._in_use)

    def apply_pressure(self, factor: float) -> int:
        """Shrink the budget to ``factor`` of its effective size.

        Models an external memory squeeze (another query, the OS): the
        new budget may fall *below* the bytes already in use, in which
        case live allocations survive but future ones overflow -- which
        is exactly what drives the hash operators into their
        spill / partitioned degradation paths instead of aborting.

        Returns the new budget in bytes.
        """
        if not 0.0 < factor <= 1.0:
            raise MemoryPoolError(f"pressure factor must be in (0, 1], got {factor}")
        effective = self.budget if self.budget is not None else max(1, self._in_use)
        self.budget = max(1, int(effective * factor))
        self.pressure_events += 1
        return self.budget

    def free_all(self, tag: str | None = None) -> int:
        """Release every live allocation (optionally only one tag).

        Returns the number of bytes released.  Operators use this to
        tear down a whole hash table ("free divisor table", Figure 1)
        in one call.
        """
        if tag is None:
            released = self._in_use
            self._live.clear()
        else:
            released = self._live.pop(tag, 0)
        self._in_use -= released
        return released

    def __repr__(self) -> str:
        cap = "unbounded" if self.budget is None else f"{self.budget}B"
        return f"<MemoryPool {self._in_use}B in use of {cap}>"
