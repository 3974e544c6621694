"""CPU-operation metering shared by the executor and the division algorithms.

The paper compares algorithms in abstract cost units (Table 1): tuple
comparisons (``Comp``), hash-value computations (``Hash``), page-sized
memory moves (``Move``), and bit-map operations (``Bit``).  The original
implementation measured CPU time with ``getrusage``; a Python
reproduction cannot meaningfully compare interpreter milliseconds with
MicroVAX milliseconds, so instead every operator in this library counts
the same abstract operations the paper's cost model is written in.

:class:`CpuCounters` is the mutable accumulator threaded through query
execution (as part of :class:`repro.executor.iterator.ExecContext`).
Weighting the counters with :class:`repro.costmodel.units.CostUnits`
converts them to the paper's model-milliseconds, which is what the
Table 4 reproduction reports.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CpuCounters:
    """Counts of the abstract CPU operations of the paper's Table 1.

    Attributes:
        comparisons: Tuple (or key) comparisons performed (``Comp``).
        hashes: Hash values computed from tuples (``Hash``).
        moves: Page-sized memory-to-memory copies (``Move``).  Operators
            that copy individual tuples convert to page equivalents via
            :meth:`add_tuple_moves`.
        bit_ops: Bit-map operations -- setting, clearing, or testing a
            bit, and word-at-a-time scan steps (``Bit``).
    """

    comparisons: int = 0
    hashes: int = 0
    moves: float = 0.0
    bit_ops: int = 0

    def add_tuple_moves(self, tuple_count: int, tuple_bytes: int, page_bytes: int) -> None:
        """Record tuple copies as fractional page-sized moves.

        The paper's ``Move`` unit is a *page* copy; an algorithm that
        copies ``tuple_count`` records of ``tuple_bytes`` bytes each has
        moved ``tuple_count * tuple_bytes / page_bytes`` pages' worth of
        memory.
        """
        if page_bytes <= 0:
            raise ValueError("page_bytes must be positive")
        self.moves += (tuple_count * tuple_bytes) / page_bytes

    def merge(self, other: "CpuCounters") -> None:
        """Accumulate another counter set into this one (in place)."""
        self.comparisons += other.comparisons
        self.hashes += other.hashes
        self.moves += other.moves
        self.bit_ops += other.bit_ops

    def snapshot(self) -> "CpuCounters":
        """Return an independent copy of the current counts."""
        return CpuCounters(self.comparisons, self.hashes, self.moves, self.bit_ops)

    def delta_since(self, earlier: "CpuCounters") -> "CpuCounters":
        """Return the operations performed since ``earlier`` was taken."""
        return CpuCounters(
            comparisons=self.comparisons - earlier.comparisons,
            hashes=self.hashes - earlier.hashes,
            moves=self.moves - earlier.moves,
            bit_ops=self.bit_ops - earlier.bit_ops,
        )

    def reset(self) -> None:
        """Zero every counter."""
        self.comparisons = 0
        self.hashes = 0
        self.moves = 0.0
        self.bit_ops = 0

