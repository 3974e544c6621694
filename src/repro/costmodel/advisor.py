"""Cost-based algorithm selection for division.

Section 5.2: "If the dividend or the divisor are results of other
database operations, e.g., selection or projection, the possible error
in the selectivity estimate makes it imperative to choose the division
algorithm very carefully."  This module is the optimizer-side answer:
given cardinality estimates and two semantic flags, it prices every
*applicable* strategy with the Section 4 formulas and returns them
ranked.

Semantics drive applicability before cost does:

* ``divisor_restricted`` -- the divisor was produced by a selection
  (the paper's second example), so dividend tuples may reference
  values outside it: the counting strategies are only correct *with*
  the semi-join.
* ``may_contain_duplicates`` -- projections without duplicate
  elimination feed the division: the counting strategies need explicit
  (priced) preprocessing, the naive algorithm eliminates duplicates in
  its sorts anyway, and hash-division is immune for free.

The advisor deliberately reuses the Table 2 scenario machinery, so its
preferences are exactly the analytical comparison's -- including its
headline conclusion that hash-division is the safe default whenever
semantics disqualify the leaner strategies.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ExperimentError
from repro.costmodel.formulas import (
    DivisionScenario,
    hash_aggregation_cost,
    hash_division_cost,
    naive_division_cost,
    sort_aggregation_cost,
)
from repro.costmodel.sorting import external_merge_sort_cost
from repro.costmodel.units import CostUnits, PAPER_UNITS


@dataclass(frozen=True)
class DivisionEstimates:
    """Optimizer-side knowledge about a division's inputs.

    Attributes:
        dividend_tuples: Estimated |R|.
        divisor_tuples: Estimated |S|.
        quotient_tuples: Estimated |Q| (candidates); defaults to
            ``dividend_tuples / max(1, divisor_tuples)`` -- the
            R = Q x S assumption -- when 0.
        dividend_tuples_per_page: Physical packing of the dividend.
        divisor_tuples_per_page: Physical packing of the divisor.
        memory_pages: Pages available for sorting / hash tables.
        divisor_restricted: The divisor is a selection result, so
            no-join counting is semantically unsafe.
        may_contain_duplicates: The inputs may contain duplicates, so
            counting needs priced duplicate elimination.
    """

    dividend_tuples: int
    divisor_tuples: int
    quotient_tuples: int = 0
    dividend_tuples_per_page: int = 5
    divisor_tuples_per_page: int = 10
    memory_pages: int = 100
    divisor_restricted: bool = False
    may_contain_duplicates: bool = False

    def __post_init__(self) -> None:
        if self.dividend_tuples < 0 or self.divisor_tuples < 0:
            raise ExperimentError("cardinality estimates must be >= 0")

    @property
    def estimated_quotient(self) -> int:
        """|Q| estimate, defaulted via the R = Q x S assumption."""
        if self.quotient_tuples:
            return self.quotient_tuples
        return max(1, self.dividend_tuples // max(1, self.divisor_tuples))


@dataclass(frozen=True)
class RankedStrategy:
    """One applicable strategy with its estimated cost."""

    strategy: str
    estimated_ms: float
    note: str = ""


def rank_strategies(
    estimates: DivisionEstimates,
    units: CostUnits = PAPER_UNITS,
) -> list[RankedStrategy]:
    """Price every semantically applicable strategy, cheapest first.

    Strategies ruled out by semantics (no-join counting under a
    restricted divisor; any counting against an empty divisor) are
    simply absent from the result, so the head of the list is always a
    *correct* choice.
    """
    if estimates.divisor_tuples == 0:
        # Vacuous division: only the direct algorithms apply, and
        # hash-division does it in one dividend pass.
        scenario = _scenario(estimates, divisor_tuples=1)
        return [
            RankedStrategy(
                "hash-division",
                hash_division_cost(scenario, units).total_ms,
                note="empty divisor: counting strategies are inapplicable",
            ),
            RankedStrategy(
                "naive",
                naive_division_cost(scenario, units).total_ms,
                note="empty divisor: counting strategies are inapplicable",
            ),
        ]

    scenario = _scenario(estimates)
    preprocessing = 0.0
    preprocessing_note = ""
    if estimates.may_contain_duplicates:
        # Counting needs duplicate-free inputs (footnote 1); price a
        # sort-based duplicate elimination of the dividend for the
        # counting strategies.  Naive division already sorts (its
        # sorts deduplicate for free) and hash-division is immune.
        preprocessing = external_merge_sort_cost(
            scenario.dividend_tuples,
            scenario.dividend_pages,
            scenario.memory_pages,
            units,
        )
        preprocessing_note = "includes duplicate-elimination sort of the dividend"

    ranked = [
        RankedStrategy(
            "hash-division", hash_division_cost(scenario, units).total_ms
        ),
        RankedStrategy(
            "naive", naive_division_cost(scenario, units).total_ms
        ),
    ]
    # The Table 2 composition never charges the sort-aggregation column
    # for *reading* its inputs (every other column does); for a fair
    # ranking the advisor adds the sequential input read to it.
    input_read = (scenario.dividend_pages + scenario.divisor_pages) * units.sio
    join_needed = estimates.divisor_restricted
    for name, costing, read_adjustment in (
        ("sort-agg", sort_aggregation_cost, input_read),
        ("hash-agg", hash_aggregation_cost, 0.0),
    ):
        if not join_needed:
            ranked.append(
                RankedStrategy(
                    f"{name} no join",
                    costing(scenario, False, units).total_ms
                    + read_adjustment
                    + preprocessing,
                    note=preprocessing_note,
                )
            )
        ranked.append(
            RankedStrategy(
                f"{name} with join",
                costing(scenario, True, units).total_ms
                + read_adjustment
                + preprocessing,
                note=preprocessing_note
                or ("required: the divisor is restricted" if join_needed else ""),
            )
        )
    ranked.sort(key=lambda entry: entry.estimated_ms)
    return ranked


def advise(
    estimates: DivisionEstimates,
    units: CostUnits = PAPER_UNITS,
) -> tuple[RankedStrategy, ...]:
    """Plan-time entry point: the whole ranked field, winner first.

    A planner consults the advisor once per division and keeps the
    ranking, so plan display can show the rejected alternatives too.
    """
    return tuple(rank_strategies(estimates, units))


def _scenario(
    estimates: DivisionEstimates, divisor_tuples: int | None = None
) -> DivisionScenario:
    """Adapt estimates to the Table 2 scenario shape.

    The scenario's ``R = Q x S`` assumption only fixes |R| given |Q|
    and |S|; here |R| is known, so the scenario is built with the
    estimated |Q| and the divisor size, and its derived dividend
    cardinality is overridden via page math on the *actual* |R|.
    """
    divisor = divisor_tuples if divisor_tuples is not None else estimates.divisor_tuples
    return DivisionScenario(
        divisor_tuples=max(1, divisor),
        quotient_tuples=estimates.estimated_quotient,
        memory_pages=estimates.memory_pages,
        dividend_tuples_per_page=estimates.dividend_tuples_per_page,
        divisor_tuples_per_page=estimates.divisor_tuples_per_page,
        quotient_tuples_per_page=estimates.divisor_tuples_per_page,
        dividend_tuples_override=max(1, estimates.dividend_tuples),
    )
