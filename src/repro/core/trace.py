"""A tracing hash-division that narrates Section 3.2's walkthrough.

The paper explains the algorithm with a blow-by-blow account of the
Figure 2 example: Database1 gets divisor number 0, Ann gets a fresh
bit map, (Barb, Optics) is discarded, and so on.  This module runs the
same algorithm while emitting that narrative as structured events --
useful for teaching, debugging, and for the test that pins the
implementation to the paper's own story
(`tests/core/test_trace.py`).

Tracing is deliberately separate from
:class:`repro.core.hash_division.HashDivision`: the production operator
stays lean, and the trace implementation follows Figure 1 line by line
instead, acting as a third independent implementation of the
algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.relalg.algebra import division_attribute_split
from repro.relalg.relation import Relation
from repro.relalg.tuples import projector


@dataclass(frozen=True)
class TraceEvent:
    """One step of the hash-division narrative.

    Kinds: ``assign-divisor-number``, ``duplicate-divisor``,
    ``discard`` (no matching divisor tuple), ``new-candidate`` (fresh
    quotient tuple + bit map), ``set-bit``, ``bit-already-set``
    (dividend duplicate), ``emit`` (step 3), ``reject`` (zero bit
    remains).
    """

    kind: str
    tuple_: tuple = ()
    divisor_number: Optional[int] = None
    detail: str = ""

    def render(self) -> str:
        parts = [self.kind, repr(self.tuple_)]
        if self.divisor_number is not None:
            parts.append(f"divisor#{self.divisor_number}")
        if self.detail:
            parts.append(f"({self.detail})")
        return " ".join(parts)


@dataclass
class DivisionTrace:
    """The full narrative plus the quotient it arrives at."""

    events: list[TraceEvent] = field(default_factory=list)
    quotient: list[tuple] = field(default_factory=list)

    def of_kind(self, kind: str) -> list[TraceEvent]:
        """All events of one kind, in order."""
        return [event for event in self.events if event.kind == kind]

    def render(self) -> str:
        """The narrative as numbered lines."""
        return "\n".join(
            f"{index + 1:3d}. {event.render()}"
            for index, event in enumerate(self.events)
        )


def trace_hash_division(dividend: Relation, divisor: Relation) -> DivisionTrace:
    """Run hash-division, recording every step of Figure 1.

    A reference implementation in plain dictionaries -- no metering, no
    memory budget -- written to mirror the pseudo-code and the §3.2
    narration as closely as possible.
    """
    quotient_names, divisor_names = division_attribute_split(dividend.schema, divisor.schema)
    divisor_of = projector(dividend.schema, divisor_names)
    quotient_of = projector(dividend.schema, quotient_names)
    trace = DivisionTrace()

    # Step 1: build the divisor table, numbering divisor tuples.
    divisor_table: dict[tuple, int] = {}
    for row in divisor:
        key = tuple(row)
        if key in divisor_table:
            trace.events.append(
                TraceEvent("duplicate-divisor", key, divisor_table[key],
                           "eliminated on the fly")
            )
            continue
        number = len(divisor_table)
        divisor_table[key] = number
        trace.events.append(TraceEvent("assign-divisor-number", key, number))
    divisor_count = len(divisor_table)

    # Step 2: consume the dividend.
    quotient_table: dict[tuple, set] = {}
    for row in dividend:
        divisor_key = divisor_of(row)
        if divisor_count and divisor_key not in divisor_table:
            trace.events.append(
                TraceEvent("discard", tuple(row), None,
                           "no matching divisor tuple")
            )
            continue
        number = divisor_table.get(divisor_key)
        candidate = quotient_of(row)
        if candidate not in quotient_table:
            quotient_table[candidate] = set()
            trace.events.append(
                TraceEvent("new-candidate", candidate, None,
                           f"bit map of {divisor_count} bits, all zero")
            )
        if number is None:
            continue  # vacuous division: no bit to set
        bits = quotient_table[candidate]
        if number in bits:
            trace.events.append(
                TraceEvent("bit-already-set", candidate, number,
                           "dividend duplicate ignored")
            )
        else:
            bits.add(number)
            trace.events.append(TraceEvent("set-bit", candidate, number))

    # Step 3: scan the quotient table.
    for candidate, bits in quotient_table.items():
        if len(bits) == divisor_count:
            trace.events.append(
                TraceEvent("emit", candidate, None, "no zero bit remains")
            )
            trace.quotient.append(candidate)
        else:
            missing = divisor_count - len(bits)
            trace.events.append(
                TraceEvent("reject", candidate, None,
                           f"{missing} zero bit(s) remain")
            )
    return trace
