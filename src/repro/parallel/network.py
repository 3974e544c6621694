"""Interconnect cost model for the shared-nothing simulation.

"Network activity can become a bottleneck in a shared-nothing database
machine" (Section 6).  The model here is deliberately simple and
deterministic: tuples travel in page-sized batches, and the network
charges per batch (message overhead) and per kilobyte (bandwidth).
Default weights make shipping a page across the interconnect cost
about half as much as reading it from disk -- the regime GAMMA
operated in, where repartitioning a large relation twice (the
with-join case) visibly "increas[es] the cost significantly".

Faults
------

An optional :class:`repro.faults.injector.FaultInjector` extends the
model with lossy links: a batch send may be **dropped** (the sender
retransmits, paying wire cost for every attempt, up to
:attr:`Interconnect.max_attempts` before a typed
:class:`~repro.errors.NetworkFaultError`) or **duplicated** (delivered
-- and charged -- twice).  :meth:`Interconnect.send` returns the number
of copies delivered so callers can model at-least-once delivery; the
parallel division strategies stay *exactly-once at the result level*
because their receivers are idempotent (bit maps set the same bit
twice, divisor tables discard duplicate rows).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import NetworkFaultError


@dataclass(frozen=True)
class NetworkWeights:
    """Milliseconds charged per interconnect event."""

    ms_per_message: float = 2.0
    ms_per_kib: float = 0.5
    batch_bytes: int = 8192


@dataclass
class LinkCounters:
    """Raw traffic counters for one (sender -> receiver) link."""

    tuples: int = 0
    bytes: int = 0


@dataclass
class NetworkFaultCounters:
    """Injected-fault and defense counters for one interconnect."""

    drops: int = 0
    retransmits: int = 0
    duplicates: int = 0

    def to_dict(self) -> dict:
        return {
            "drops": self.drops,
            "retransmits": self.retransmits,
            "duplicates": self.duplicates,
        }


class Interconnect:
    """Traffic accounting between numbered processors.

    ``-1`` denotes the coordinator / collection site.  The model does
    not simulate contention; :meth:`cost_ms` prices total traffic, and
    :meth:`busiest_receiver_ms` prices the hottest inbound link set,
    which is how the collection-site bottleneck of Section 6 shows up.
    """

    def __init__(
        self,
        weights: NetworkWeights | None = None,
        injector=None,
        max_attempts: int = 4,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.weights = weights or NetworkWeights()
        self.injector = injector
        self.max_attempts = max_attempts
        self.fault_counters = NetworkFaultCounters()
        self._links: dict[tuple[int, int], LinkCounters] = {}

    def send(self, sender: int, receiver: int, tuples: int, tuple_bytes: int) -> int:
        """Record ``tuples`` records of ``tuple_bytes`` each on a link.

        Local delivery (sender == receiver) is free: shared-nothing
        repartitioning only pays for tuples that change machines.

        Returns the number of *copies delivered* to the receiver: ``1``
        normally, ``2`` when the injector duplicates the batch.  A
        dropped batch is retransmitted (each attempt pays full wire
        cost) up to :attr:`max_attempts` times before
        :class:`~repro.errors.NetworkFaultError` is raised.

        Raises:
            ValueError: if ``tuples`` or ``tuple_bytes`` is negative.
            NetworkFaultError: when the retransmission budget is
                exhausted against injected drops.
        """
        if tuples < 0:
            raise ValueError(f"tuples must be >= 0, got {tuples}")
        if tuple_bytes < 0:
            raise ValueError(f"tuple_bytes must be >= 0, got {tuple_bytes}")
        if sender == receiver or tuples == 0:
            return 1
        if self.injector is None:
            self._charge(sender, receiver, tuples, tuple_bytes)
            return 1
        attempts = 0
        while True:
            attempts += 1
            verdict = self.injector.on_network_send(sender, receiver)
            # The bytes hit the wire whether or not the batch arrives.
            self._charge(sender, receiver, tuples, tuple_bytes)
            if verdict is None:
                return 1
            if verdict == "duplicate":
                self.fault_counters.duplicates += 1
                self._charge(sender, receiver, tuples, tuple_bytes)
                return 2
            # verdict == "drop"
            self.fault_counters.drops += 1
            if attempts >= self.max_attempts:
                raise NetworkFaultError(
                    f"batch from node {sender} to node {receiver} dropped "
                    f"{attempts} times; retransmission budget "
                    f"({self.max_attempts} attempts) exhausted"
                )
            self.fault_counters.retransmits += 1

    def _charge(self, sender: int, receiver: int, tuples: int, tuple_bytes: int) -> None:
        link = self._links.setdefault((sender, receiver), LinkCounters())
        link.tuples += tuples
        link.bytes += tuples * tuple_bytes

    # -- accounting -----------------------------------------------------

    @property
    def total_tuples(self) -> int:
        """Tuples that crossed the interconnect."""
        return sum(link.tuples for link in self._links.values())

    @property
    def total_bytes(self) -> int:
        """Bytes that crossed the interconnect."""
        return sum(link.bytes for link in self._links.values())

    def _price(self, total_bytes: int) -> float:
        w = self.weights
        messages = -(-total_bytes // w.batch_bytes) if total_bytes else 0
        return messages * w.ms_per_message + (total_bytes / 1024) * w.ms_per_kib

    def cost_ms(self) -> float:
        """Model time for all traffic (links transfer in parallel is
        ignored here; use :meth:`busiest_receiver_ms` for the
        bottleneck view)."""
        return self._price(self.total_bytes)

    def busiest_receiver_ms(self) -> float:
        """Inbound traffic cost at the hottest receiver.

        With per-link parallelism, a phase cannot finish before its
        most loaded receiver has drained its inbound traffic; a central
        collection site shows up here long before it dominates
        :meth:`cost_ms`.
        """
        inbound: dict[int, int] = {}
        for (_sender, receiver), link in self._links.items():
            inbound[receiver] = inbound.get(receiver, 0) + link.bytes
        if not inbound:
            return 0.0
        return max(self._price(total) for total in inbound.values())
