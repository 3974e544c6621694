"""Retry with capped exponential backoff, on a deterministic clock.

Transient device faults (and checksum failures, which a re-read of an
intact page image heals) are retried by
:class:`repro.storage.diskbase.PagedDiskBase` under a
:class:`RetryPolicy`.  Each retried transfer is re-issued through the
normal accounting path, so its seeks/latency/transfer milliseconds land
in the Table 3 cost meters exactly like any other physical I/O -- the
:mod:`repro.obs.iotrace` conservation validator keeps holding under
faults because retries are *real* (accounted) transfers, not invisible
ones.

The backoff *wait* is model time, not I/O: it accumulates on an
injectable :class:`BackoffClock` (and on the device's
:class:`~repro.storage.diskbase.DeviceFaultStats`), so tests can assert
exact deterministic backoff schedules and the chaos CLI can report how
long a run spent waiting out transient faults.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import FaultConfigError


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff for transient disk faults.

    Attributes:
        max_attempts: Total attempts per operation, including the
            first; ``max_attempts=1`` disables retrying.
        base_backoff_ms: Backoff charged after the first failure.
        multiplier: Growth factor per subsequent failure.
        max_backoff_ms: Cap on any single backoff wait.
    """

    max_attempts: int = 4
    base_backoff_ms: float = 1.0
    multiplier: float = 2.0
    max_backoff_ms: float = 8.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise FaultConfigError("max_attempts must be >= 1")
        if self.base_backoff_ms < 0 or self.max_backoff_ms < 0:
            raise FaultConfigError("backoff milliseconds must be >= 0")
        if self.multiplier < 1.0:
            raise FaultConfigError("backoff multiplier must be >= 1")

    def backoff_ms(self, failure_number: int) -> float:
        """Backoff charged after the ``failure_number``-th failure (1-based).

        Deterministic (no jitter): the simulation values exact
        reproducibility over thundering-herd avoidance.
        """
        if failure_number < 1:
            raise FaultConfigError("failure_number is 1-based")
        wait = self.base_backoff_ms * (self.multiplier ** (failure_number - 1))
        return min(self.max_backoff_ms, wait)


#: The stack's default policy: up to 4 attempts, 1/2/4 ms backoff.
DEFAULT_RETRY_POLICY = RetryPolicy()


class BackoffClock:
    """Deterministic model clock that accumulates backoff waits.

    The default implementation never sleeps -- it *records* model
    milliseconds, matching the paper's computed (not measured) time
    base.  Tests inject their own instance to assert exact waits; a
    real deployment could subclass and actually sleep.
    """

    def __init__(self) -> None:
        self.waited_ms = 0.0
        self.waits = 0

    def wait(self, ms: float) -> None:
        """Record one backoff wait of ``ms`` model milliseconds."""
        self.waited_ms += ms
        self.waits += 1

    def reset(self) -> None:
        """Zero the accumulated waits."""
        self.waited_ms = 0.0
        self.waits = 0

    def __repr__(self) -> str:
        return f"<BackoffClock {self.waits} waits, {self.waited_ms:.1f} ms>"
