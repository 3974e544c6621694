"""Per-processor execution state for the shared-nothing simulation.

Each :class:`ProcessorNode` owns an independent
:class:`~repro.executor.iterator.ExecContext` -- its own CPU counters
and memory pool -- so local work is priced per machine and the
simulation's elapsed time is the *maximum* over processors (all local
operators run concurrently in a real machine).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.costmodel.units import CostUnits, PAPER_UNITS
from repro.executor.iterator import ExecContext
from repro.storage.config import StorageConfig


@dataclass
class ProcessorNode:
    """One shared-nothing processor: id + private execution context."""

    node_id: int
    ctx: ExecContext

    def cpu_ms(self, units: CostUnits = PAPER_UNITS) -> float:
        """Local CPU model time accumulated so far."""
        return units.cpu_cost_ms(self.ctx.cpu)

    def io_ms(self) -> float:
        """Local I/O model time accumulated so far."""
        return self.ctx.io_cost_ms()

    def busy_ms(self, units: CostUnits = PAPER_UNITS) -> float:
        """Total local model time (CPU + I/O)."""
        return self.cpu_ms(units) + self.io_ms()


@dataclass
class Cluster:
    """A set of processors plus sizing defaults."""

    processors: list[ProcessorNode] = field(default_factory=list)

    @classmethod
    def build(
        cls,
        count: int,
        config: StorageConfig | None = None,
        memory_budget_per_node: int | None = None,
    ) -> "Cluster":
        """Create ``count`` processors with fresh contexts."""
        if count <= 0:
            raise ValueError(f"processor count must be positive, got {count}")
        return cls(
            processors=[
                ProcessorNode(i, ExecContext(config, memory_budget_per_node))
                for i in range(count)
            ]
        )

    def __len__(self) -> int:
        return len(self.processors)

    def __iter__(self):
        return iter(self.processors)

    def elapsed_ms(self, units: CostUnits = PAPER_UNITS) -> float:
        """Max local time over all processors -- the parallel phase's
        wall-clock contribution."""
        return max((node.busy_ms(units) for node in self.processors), default=0.0)
