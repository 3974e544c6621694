"""Physical plan assembly: strategy names -> operator trees.

:func:`build_division_operator` is the single place in the codebase
that knows how to turn a named division strategy into an operator tree
over arbitrary dividend/divisor inputs.  Every consumer routes through
it: the planner (:mod:`repro.plan.planner`) when compiling a
``contains`` query, the experiment harness
(:func:`repro.experiments.runner.run_strategy`) when measuring the
Table 4 grid, and :func:`repro.divide` over in-memory relations -- one
factory, one strategy vocabulary.

:class:`PhysicalPlan` wraps a compiled operator tree with the planner's
decisions, uniform EXPLAIN rendering, and one stepping generator,
:meth:`PhysicalPlan.steps`, that also owns the memory-overflow
fallback: when a single-phase hash table exceeds the context's memory
budget, the plan re-runs through the Section 3.4 partitioned
hash-division machinery instead of failing, re-opening the same
(re-openable) input subtrees.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import TYPE_CHECKING, Generator

from repro.errors import DivisionError, ExecutionError, HashTableOverflowError
from repro.core.aggregate_division import (
    HashAggregateDivision,
    SortAggregateDivision,
)
from repro.core.hash_division import HashDivision
from repro.core.naive_division import NaiveDivision
from repro.core.partitioned import hash_division_with_overflow
from repro.costmodel.scenarios import TABLE2_COLUMNS
from repro.executor.iterator import ExecContext, QueryIterator
from repro.executor.sort import ExternalSort
from repro.plan.operators import MaterializedDivision
from repro.relalg.algebra import division_attribute_split
from repro.relalg.relation import Relation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.plan.logical import LogicalNode
    from repro.plan.planner import DivisionDecision

#: Every strategy name the factory accepts: the six advisor/Table 2
#: strategies plus the two relation-level methods.
DIVISION_OPERATOR_STRATEGIES: tuple[str, ...] = TABLE2_COLUMNS + ("algebraic", "oracle")


def build_division_operator(
    strategy: str,
    dividend: QueryIterator,
    divisor: QueryIterator,
    expected_divisor: int = 0,
    expected_quotient: int = 0,
    eliminate_duplicates: bool = False,
    distinct_sorts: bool = True,
) -> QueryIterator:
    """Build the physical operator tree for one named division strategy.

    Args:
        strategy: One of :data:`DIVISION_OPERATOR_STRATEGIES` (advisor
            strategy names, as printed in Table 2's column order, plus
            ``"algebraic"`` / ``"oracle"``).
        dividend: Input operator producing dividend tuples.
        divisor: Input operator producing divisor tuples.
        expected_divisor: Sizing hint for hash-division's divisor table.
        expected_quotient: Sizing hint for quotient-keyed hash tables.
        eliminate_duplicates: Insert the (priced) duplicate-elimination
            preprocessing the counting strategies require when the
            inputs may contain duplicates (the paper's footnote 1).
        distinct_sorts: Whether the naive algorithm's input sorts
            deduplicate.  The paper's analyzed configuration assumes
            duplicate-free inputs (pass ``False`` to reproduce it); the
            planner always passes ``True`` because query pipelines may
            produce duplicates and naive division *requires*
            duplicate-free sorted inputs.
    """
    quotient_names, divisor_names = division_attribute_split(dividend.schema, divisor.schema)
    if strategy == "naive":
        sorted_dividend = ExternalSort(
            dividend,
            key_names=quotient_names + divisor_names,
            distinct=distinct_sorts,
        )
        sorted_divisor = ExternalSort(
            divisor,
            key_names=divisor.schema.names,
            distinct=distinct_sorts,
        )
        return NaiveDivision(sorted_dividend, sorted_divisor)
    if strategy == "sort-agg no join":
        return SortAggregateDivision(
            dividend, divisor, with_join=False,
            eliminate_duplicates=eliminate_duplicates,
        )
    if strategy == "sort-agg with join":
        return SortAggregateDivision(
            dividend, divisor, with_join=True,
            eliminate_duplicates=eliminate_duplicates,
        )
    if strategy == "hash-agg no join":
        return HashAggregateDivision(
            dividend, divisor, with_join=False,
            eliminate_duplicates=eliminate_duplicates,
            expected_quotient=expected_quotient,
        )
    if strategy == "hash-agg with join":
        return HashAggregateDivision(
            dividend, divisor, with_join=True,
            eliminate_duplicates=eliminate_duplicates,
            expected_quotient=expected_quotient,
        )
    if strategy == "hash-division":
        return HashDivision(
            dividend,
            divisor,
            expected_divisor=expected_divisor,
            expected_quotient=expected_quotient,
        )
    if strategy in ("algebraic", "oracle"):
        return MaterializedDivision(dividend, divisor, method=strategy)
    raise DivisionError(
        f"unknown strategy {strategy!r}; "
        f"expected one of {DIVISION_OPERATOR_STRATEGIES}"
    )


@dataclass
class PhysicalPlan:
    """A compiled, executable physical plan.

    Attributes:
        root: The root of the operator tree; draining it yields the
            query result.
        ctx: The execution context the tree was compiled against.
        logical: The logical plan the tree was compiled from.
        decisions: One :class:`~repro.plan.planner.DivisionDecision`
            per ``Divide`` node, in compile order.
        dividend_input: For single-division plans, the dividend input
            subtree (below any strategy-specific sorts/joins) -- the
            hook the overflow fallback re-opens.
        divisor_input: Likewise for the divisor input subtree.
        fell_back: Whether the last :meth:`steps` run degraded to
            :meth:`overflow_fallback`.
    """

    root: QueryIterator
    ctx: ExecContext
    logical: "LogicalNode"
    decisions: list["DivisionDecision"] = field(default_factory=list)
    dividend_input: QueryIterator | None = None
    divisor_input: QueryIterator | None = None
    fell_back: bool = field(default=False, init=False)

    @property
    def schema(self):
        return self.root.schema

    def execute(self, name: str = "") -> Relation:
        """Run :meth:`steps` as one stretch; returns the result relation."""
        run = self.steps(sys.maxsize, name)
        try:
            while True:
                next(run)
        except StopIteration as done:
            return done.value

    def steps(self, rows_per_step: int, name: str) -> Generator[float, None, Relation]:
        """Run the plan a stretch at a time; returns the result relation.

        Yields the Table 3 I/O-meter delta of ``open()`` (stop-and-go
        phases such as sorts and hash builds finish there), then of
        each stretch of ``rows_per_step`` result tuples.  Rows are
        pulled batch by batch, and each batch exactly where row-at-a-time
        ``next()`` would pull it, so every stretch books the same I/O.

        A :class:`~repro.errors.HashTableOverflowError` under a tight
        memory budget does not fail the query: the root is closed,
        :attr:`fell_back` is set, and :meth:`overflow_fallback` runs as
        one more stretch over the same input subtrees.  Hash-division
        is duplicate-immune and handles the empty divisor, so the
        fallback is correct whichever strategy overflowed.  The root is
        closed however the generator ends, so an error thrown in at any
        yield (a cancellation, a deadline) leaks nothing.
        """
        ctx, root = self.ctx, self.root
        self.fell_back = False
        try:
            try:
                io_before = ctx.io_cost_ms()
                root.open()
                yield ctx.io_cost_ms() - io_before
                rows: list = []
                pull = chain.from_iterable(iter(root.next_batch, []))
                while True:
                    io_before = ctx.io_cost_ms()
                    before = len(rows)
                    rows.extend(islice(pull, rows_per_step))
                    yield ctx.io_cost_ms() - io_before
                    if len(rows) - before < rows_per_step:
                        break
            except HashTableOverflowError:
                if self.dividend_input is None or self.divisor_input is None:
                    raise
                self.fell_back = True
                root.close()
                io_before = ctx.io_cost_ms()
                result = self.overflow_fallback(name)
                yield ctx.io_cost_ms() - io_before
                return result
        finally:
            root.close()
        return Relation(root.schema, rows, name=name)

    def overflow_fallback(self, name: str) -> Relation:
        """Run the plan as Section 3.4 partitioned hash-division.

        Re-opens the plan's own dividend and divisor input subtrees, so
        the caller must have closed :attr:`root` first, as
        :meth:`steps` does on overflow.
        """
        tracer = self.ctx.tracer
        if tracer.enabled:
            tracer.count("repro_plan_overflow_fallback_total")
        # Partition the dimension the planner expects to be the memory
        # hog: quotient partitioning shrinks the quotient table per
        # phase (and is required for the vacuous empty-divisor case,
        # where dropping empty divisor clusters would drop every
        # candidate); divisor partitioning shrinks the divisor table
        # and the bit maps when the divisor dominates.
        strategy = "quotient"
        for decision in self.decisions:
            estimates = decision.estimates
            if (
                estimates.divisor_tuples > 0
                and estimates.divisor_tuples > estimates.estimated_quotient
            ):
                strategy = "divisor"
        return hash_division_with_overflow(
            self.dividend_input, self.divisor_input, strategy=strategy, name=name
        )

    def explain(self, analyze: bool = False) -> str:
        """Uniform plan-tree rendering (optionally with row counts)."""
        lines = []
        for decision in self.decisions:
            lines.append(decision.render())
        lines.append(self.root.explain(analyze=analyze))
        return "\n".join(lines)

    def open(self) -> None:
        self.root.open()

    def close(self) -> None:
        if self.root is not None:
            try:
                self.root.close()
            except ExecutionError:
                pass  # already closed
