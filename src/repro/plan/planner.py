"""The planner: compile logical plans, choosing division algorithms.

Section 5.2's argument, operationalized: because the ``contains``
construct reaches the planner as an explicit ``Divide`` node, the
planner can gather the *actual* input statistics (one pass over the
reference evaluator, a page at a time -- exactly the numbers the eager
query layer used to compute, so algorithm choices are unchanged), price
every semantically applicable strategy with the Section 4 cost
formulas, and compile the winner into the physical operator tree.  The
decision is recorded on the plan, so ``explain()`` shows not just the
tree but *why* it is that tree.

The statistics pass charges no CPU units, but it is not free: it reads
a stored input through the buffer pool like any scan, so a cold
stored dividend costs its page reads in model ms (141 reads, 2,014
model ms for the largest ``contains-planned`` transcript) before the
division reads it again.

:func:`decide_division` is the only producer of
:class:`DivisionDecision` records; ``ContainsQuery.plan()``,
``divide_with_advisor`` and the serve plan cache all go through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Hashable, Iterable

from repro.errors import ExecutionError
from repro.costmodel.advisor import DivisionEstimates, RankedStrategy, advise
from repro.costmodel.units import CostUnits, PAPER_UNITS
from repro.executor.distinct import HashDistinct
from repro.executor.filter import Select
from repro.executor.iterator import ExecContext, QueryIterator
from repro.executor.project import Project
from repro.executor.scan import RelationSource, StoredRelationScan
from repro.plan.logical import (
    DistinctNode,
    DivideNode,
    FilterNode,
    LogicalNode,
    ProjectNode,
    SourceNode,
    StoredSourceNode,
    evaluate_batches,
)
from repro.plan.physical import PhysicalPlan, build_division_operator
from repro.relalg.schema import Schema
from repro.relalg.tuples import Row


@dataclass(frozen=True)
class DivisionDecision:
    """The planner's record of one division-algorithm choice.

    Attributes:
        estimates: The statistics the advisor priced.
        quotient_names: The result attributes of the division.
        ranking: Every applicable strategy with its price, cheapest
            (the winner) first -- kept so ``explain()`` can show the
            alternatives, not just the winner.
    """

    estimates: DivisionEstimates
    quotient_names: tuple[str, ...]
    ranking: tuple[RankedStrategy, ...]

    @property
    def strategy(self) -> str:
        """The advisor strategy name that won."""
        return self.ranking[0].strategy

    @property
    def estimated_ms(self) -> float:
        """The winner's estimated cost in model ms."""
        return self.ranking[0].estimated_ms

    @property
    def eliminate_duplicates(self) -> bool:
        """Whether the compiled counting strategy carries explicit
        duplicate-elimination preprocessing (the paper's footnote 1)."""
        return self.estimates.may_contain_duplicates and self.strategy.startswith(
            ("sort-agg", "hash-agg")
        )

    def render(self) -> str:
        """Multi-line decision summary for plan display."""
        lines = [
            f"Division strategy: relational division via {self.strategy!r}"
            f" (est. {self.estimated_ms:,.0f} model ms)",
            f"  dividend: ~{self.estimates.dividend_tuples} tuples",
            f"  divisor:  ~{self.estimates.divisor_tuples} tuples"
            + (" (restricted)" if self.estimates.divisor_restricted else ""),
            f"  quotient: {', '.join(self.quotient_names)}"
            f" (~{self.estimates.estimated_quotient} tuples)",
        ]
        if self.estimates.may_contain_duplicates:
            lines.append("  duplicates possible: counting needs preprocessing")
        runners_up = self.ranking[1:]
        if runners_up:
            alternatives = ", ".join(
                f"{ranked.strategy} ({ranked.estimated_ms:,.0f} ms)"
                for ranked in runners_up[:3]
            )
            lines.append(f"  rejected: {alternatives}")
        return "\n".join(lines)


def _value_key(schema: Schema, names: tuple[str, ...]) -> Callable[[Row], Hashable]:
    """Key of ``names`` in a row of ``schema``: the bare value for one
    attribute, a tuple for several (one ``itemgetter``, built in C)."""
    return itemgetter(*schema.positions_of(names))


def divisor_covers(
    dividend_schema: Schema,
    dividend_rows: Iterable[Row],
    divisor_schema: Schema,
    divisor_rows: Iterable[Row],
) -> bool:
    """Section 2.2's precondition of the no-join counting strategies.

    True when every divisor-attribute value that occurs in the dividend
    also occurs in the divisor (referential integrity).  Counting
    without a semi-join compares each candidate's tuple count with
    |S|, so a dividend tuple whose divisor value is missing from the
    divisor would be counted and could make a candidate look complete.
    An empty dividend is covered by any divisor; an empty divisor
    covers only an empty dividend.
    """
    names = divisor_schema.names
    divisor_values = set(map(_value_key(divisor_schema, names), divisor_rows))
    return divisor_values.issuperset(map(_value_key(dividend_schema, names), dividend_rows))


def _distinct_rows(node: LogicalNode) -> tuple[set, int]:
    """The node's distinct rows and its row count, in one batch pass."""
    rows: set = set()
    count = 0
    for batch in evaluate_batches(node):
        count += len(batch)
        rows.update(batch)
    return rows, count


def collect_division_estimates(
    dividend: LogicalNode,
    divisor: LogicalNode,
    divisor_restricted: bool = False,
) -> tuple[DivisionEstimates, tuple[str, ...]]:
    """Exact plan-time statistics for one division, plus quotient names.

    Streams the dividend, then the divisor, once through the reference
    evaluator a batch at a time: |R|, the distinct |S|, the exact
    candidate count |Q|, and the duplicate flags -- the same
    statistics the advisor has always been fed, gathered without
    materializing either input as a
    :class:`~repro.relalg.relation.Relation`.  The pass charges no CPU
    units, but a stored input is read page by page through the buffer
    pool, so its page reads are metered I/O like any scan's.

    Because the pass sees the exact values, it also *checks* the
    Section 2.2 correctness precondition of the no-join counting
    strategies (:func:`divisor_covers`) instead of trusting the
    syntactic signal alone: when any divisor-attribute value occurring
    in the dividend is missing from the divisor (no referential
    integrity), the divisor is reported restricted even without a
    ``where`` step, so the advisor refuses the strategies that would
    count non-divisor tuples.
    """
    quotient_names = DivideNode(dividend, divisor, divisor_restricted).quotient_names
    dividend_rows, dividend_tuples = _distinct_rows(dividend)
    divisor_rows, divisor_tuples = _distinct_rows(divisor)
    quotient_of = _value_key(dividend.schema, quotient_names)
    covered = divisor_covers(dividend.schema, dividend_rows, divisor.schema, divisor_rows)
    estimates = DivisionEstimates(
        dividend_tuples=dividend_tuples,
        divisor_tuples=len(divisor_rows),
        quotient_tuples=len(set(map(quotient_of, dividend_rows))),
        divisor_restricted=divisor_restricted or not covered,
        may_contain_duplicates=(
            len(dividend_rows) < dividend_tuples or len(divisor_rows) < divisor_tuples
        ),
    )
    return estimates, quotient_names


def decide_division(
    node: DivideNode, units: CostUnits = PAPER_UNITS
) -> DivisionDecision:
    """Choose the division algorithm for one ``Divide`` node.

    The only producer of :class:`DivisionDecision` records: runs the
    exact statistics pass and prices every applicable strategy with the
    advisor; the record derives the winner and whether a counting
    strategy needs explicit duplicate elimination.
    """
    estimates, quotient_names = collect_division_estimates(
        node.dividend, node.divisor, node.divisor_restricted
    )
    return DivisionDecision(estimates, quotient_names, advise(estimates, units))


class Planner:
    """Compiles logical plans into physical iterator trees.

    One planner instance compiles one plan; its :attr:`decisions` list
    records every division-algorithm choice made along the way.
    """

    def __init__(self, ctx: ExecContext, units: CostUnits = PAPER_UNITS) -> None:
        self.ctx = ctx
        self.units = units
        self.decisions: list[DivisionDecision] = []
        self._division_inputs: tuple[QueryIterator, QueryIterator] | None = None

    def compile(self, node: LogicalNode) -> QueryIterator:
        """Lower one logical node (and its subtree) to physical form."""
        if isinstance(node, SourceNode):
            return RelationSource(self.ctx, node.relation)
        if isinstance(node, StoredSourceNode):
            return StoredRelationScan(self.ctx, node.stored)
        if isinstance(node, FilterNode):
            return Select(self.compile(node.child), node.predicate)
        if isinstance(node, ProjectNode):
            return Project(self.compile(node.child), node.names)
        if isinstance(node, DistinctNode):
            return HashDistinct(self.compile(node.child))
        if isinstance(node, DivideNode):
            return self._compile_division(node, decide_division(node, self.units))
        raise ExecutionError(f"unplannable logical node {type(node).__name__}")

    def _compile_division(
        self, node: DivideNode, decision: DivisionDecision
    ) -> QueryIterator:
        self.decisions.append(decision)
        dividend_input = self.compile(node.dividend)
        divisor_input = self.compile(node.divisor)
        self._division_inputs = (dividend_input, divisor_input)
        estimates = decision.estimates
        return build_division_operator(
            decision.strategy,
            dividend_input,
            divisor_input,
            expected_divisor=estimates.divisor_tuples,
            expected_quotient=estimates.estimated_quotient,
            eliminate_duplicates=decision.eliminate_duplicates,
            distinct_sorts=True,
        )

    @property
    def division_inputs(self) -> tuple[QueryIterator, QueryIterator] | None:
        """The (dividend, divisor) input subtrees of the last division."""
        return self._division_inputs


def compile_plan(
    node: LogicalNode,
    ctx: ExecContext | None = None,
    units: CostUnits = PAPER_UNITS,
    decision: DivisionDecision | None = None,
) -> PhysicalPlan:
    """Compile a logical plan into an executable :class:`PhysicalPlan`.

    Args:
        node: Root of the logical plan.
        ctx: Execution context to compile against; a fresh unbudgeted
            context is created when omitted.
        units: Table 1 cost units the advisor prices strategies with.
        decision: A decision already made for ``node`` (a ``Divide``
            root), e.g. one reused from a plan cache; the statistics
            pass and the advisor are then skipped.
    """
    ctx = ctx or ExecContext()
    planner = Planner(ctx, units=units)
    if decision is None:
        root = planner.compile(node)
    else:
        root = planner._compile_division(node, decision)
    dividend_input, divisor_input = (None, None)
    if isinstance(node, DivideNode) and planner.division_inputs is not None:
        # The overflow fallback substitutes partitioned hash-division
        # for the whole plan, which is only sound when the division
        # *is* the plan (always true for compiled ``contains`` queries).
        dividend_input, divisor_input = planner.division_inputs
    return PhysicalPlan(
        root=root,
        ctx=ctx,
        logical=node,
        decisions=planner.decisions,
        dividend_input=dividend_input,
        divisor_input=divisor_input,
    )
