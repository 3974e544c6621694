"""Division by counting -- the aggregation strategies (Section 2.2).

Both strategies evaluate the paper's three-step plan:

1. count the divisor with a *scalar aggregate*,
2. count dividend tuples per quotient candidate with an *aggregate
   function* -- preceded by a (semi-)join with the divisor when the
   divisor was restricted by a selection (``with_join=True``, the
   paper's second example query),
3. keep the candidates whose count equals the divisor count.

:class:`SortAggregateDivision` uses sorting for step 2 (INGRES-style,
Section 2.2.1) with aggregation performed during the sort;
:class:`HashAggregateDivision` uses hash aggregation (GAMMA-style,
Section 2.2.2).

**Correctness precondition of the no-join variants.**  Counting "as
many courses taken as offered" equates two counts, so without the join
it is only valid when every divisor-attribute value occurring in the
dividend also occurs in the divisor (the paper's first example query,
where referential integrity guarantees each Transcript course exists
in Courses).  When the divisor is restricted -- the paper's second
example, "all *database* courses" -- dividend tuples referencing
non-divisor values would be counted too, so ``with_join=True`` must be
used: "it is important to count only those tuples from the Transcript
relation which refer to database courses" (Section 2.2).  The direct
algorithms (naive, hash-division) have no such precondition.

Duplicate handling follows the paper's footnote 1: counting is only
correct over duplicate-free inputs, so by default
(``eliminate_duplicates=True``) an explicit duplicate-elimination step
is inserted -- during sorting for the sort strategy, and via the
memory-hungry :class:`~repro.executor.distinct.HashDistinct` for the
hash strategy.  Passing ``eliminate_duplicates=False`` reproduces the
paper's analyzed configuration (inputs known duplicate-free), fusing
the count into the sort / skipping the distinct step.

A division with an *empty divisor* is rejected: "students who have
taken as many courses as there are courses" cannot produce students
with zero transcript tuples, so counting cannot express the vacuous
universal quantifier that the direct algorithms (and the algebraic
identity) resolve to "every candidate qualifies".
"""

from __future__ import annotations

from repro.errors import DivisionError, ExecutionError
from repro.executor.aggregate import HashGroupCount, SortedGroupCount
from repro.executor.distinct import HashDistinct
from repro.executor.hash_join import HashSemiJoin
from repro.executor.iterator import QueryIterator, drain
from repro.executor.merge_join import MergeSemiJoin
from repro.executor.scan import RelationSource
from repro.executor.sort import ExternalSort, count_reducer
from repro.relalg.algebra import division_attribute_split
from repro.relalg.relation import Relation
from repro.relalg.tuples import Row


class _AggregateDivisionBase(QueryIterator):
    """Shared step-1/step-3 machinery for both counting strategies."""

    def __init__(
        self,
        dividend: QueryIterator,
        divisor: QueryIterator,
        with_join: bool,
        eliminate_duplicates: bool,
    ) -> None:
        if dividend.ctx is not divisor.ctx:
            raise ExecutionError("division inputs must share one execution context")
        quotient_names, divisor_names = division_attribute_split(dividend.schema, divisor.schema)
        super().__init__(dividend.ctx, dividend.schema.project(quotient_names))
        self.dividend = dividend
        self.divisor = divisor
        self.with_join = with_join
        self.eliminate_duplicates = eliminate_duplicates
        self.quotient_names = quotient_names
        self.divisor_names = divisor_names
        self.divisor_count = 0
        self._counts: QueryIterator | None = None

    # -- step 1: scalar aggregate ------------------------------------

    def _count_divisor(self) -> Relation:
        """Count the divisor; returns the (distinct) divisor tuples.

        The divisor is drained into memory -- it is the small input by
        the division's nature -- so the join path can reuse it without
        re-reading the base relation.  Duplicate elimination here is
        the "explicitly requested" uniqueness of footnote 1.
        """
        tracer = self.ctx.tracer
        with tracer.span("aggregate_division.count_divisor") as span:
            self.divisor.open()
            try:
                rows = drain(self.divisor)
            finally:
                self.divisor.close()
            if self.eliminate_duplicates:
                rows = list(dict.fromkeys(rows))
                # One comparison per tuple for the uniqueness check.
                self.ctx.cpu.comparisons += len(rows)
            divisor_relation = Relation(self.divisor.schema, rows, name="divisor")
            self.divisor_count = len(divisor_relation)
            span.annotate(divisor_tuples=self.divisor_count)
        tracer.count(
            "repro_division_divisor_tuples_total",
            self.divisor_count,
            algorithm=self._algorithm_label(),
        )
        if self.divisor_count == 0:
            raise DivisionError(
                "division by aggregation cannot express a vacuous for-all "
                "(empty divisor); use the 'hash-division' or 'naive' strategy"
            )
        return divisor_relation

    def _algorithm_label(self) -> str:
        """Metric label: strategy family plus the join variant."""
        family = (
            "sort-aggregate"
            if isinstance(self, SortAggregateDivision)
            else "hash-aggregate"
        )
        return f"{family} {'with join' if self.with_join else 'no join'}"

    # -- step 3: final selection -----------------------------------------

    def _next_batch(self) -> list[Row]:
        """The candidates of the next count batch whose count equals
        the divisor count, one Comp per candidate tested."""
        assert self._counts is not None
        target = self.divisor_count
        while rows := self._counts.next_batch():
            self.ctx.cpu.comparisons += len(rows)
            quotient = [row[:-1] for row in rows if row[-1] == target]
            if quotient:
                return quotient
        return []

    def _close(self) -> None:
        if self._counts is not None:
            self._counts.close()
            self._counts = None
        self.ctx.tracer.count(
            "repro_division_quotient_tuples_total",
            self.rows_produced,
            algorithm=self._algorithm_label(),
        )

    def children(self) -> tuple[QueryIterator, ...]:
        return (self.dividend, self.divisor)


class SortAggregateDivision(_AggregateDivisionBase):
    """Division by counting with sort-based aggregation (Section 2.2.1).

    Without a join, the dividend is sorted once on the quotient
    attributes; with a join it is sorted first on the divisor
    attributes (for the merge semi-join) and the join result is sorted
    again on the quotient attributes -- "it must be sorted first on
    course-no's for the join and then on student-id's for aggregation".
    """

    def _open(self) -> None:
        divisor_relation = self._count_divisor()
        if self.with_join:
            outer = ExternalSort(
                self.dividend,
                key_names=self.divisor_names + self.quotient_names,
                distinct=self.eliminate_duplicates,
            )
            inner = ExternalSort(
                RelationSource(self.ctx, divisor_relation),
                key_names=self.divisor_names,
            )
            joined = MergeSemiJoin(outer, inner, self.divisor_names)
            counts: QueryIterator = ExternalSort(
                joined,
                key_names=self.quotient_names,
                reducer=count_reducer(joined.schema, self.quotient_names),
            )
        elif self.eliminate_duplicates:
            deduplicated = ExternalSort(
                self.dividend,
                key_names=self.quotient_names + self.divisor_names,
                distinct=True,
            )
            counts = SortedGroupCount(deduplicated, self.quotient_names)
        else:
            counts = ExternalSort(
                self.dividend,
                key_names=self.quotient_names,
                reducer=count_reducer(self.dividend.schema, self.quotient_names),
            )
        with self.ctx.tracer.span(
            "aggregate_division.aggregate_dividend", strategy=self._algorithm_label()
        ):
            counts.open()
        self._counts = counts

    def describe(self) -> str:
        join = "with join" if self.with_join else "no join"
        return f"SortAggregateDivision({join})"


class HashAggregateDivision(_AggregateDivisionBase):
    """Division by counting with hash aggregation (Section 2.2.2).

    The aggregation hash table holds one entry per quotient candidate,
    so the dividend need not fit in memory.  With a join, a hash
    semi-join on the divisor attributes precedes the aggregation, built
    on its own hash table ("the hash table used for the join is a
    different one than the one used for aggregation").  Duplicate
    elimination, when requested, requires holding the entire distinct
    dividend in memory (:class:`~repro.executor.distinct.HashDistinct`)
    -- the impracticality the paper calls out.
    """

    def __init__(
        self,
        dividend: QueryIterator,
        divisor: QueryIterator,
        with_join: bool = False,
        eliminate_duplicates: bool = True,
        expected_quotient: int = 0,
    ) -> None:
        super().__init__(dividend, divisor, with_join, eliminate_duplicates)
        self.expected_quotient = expected_quotient

    def _open(self) -> None:
        divisor_relation = self._count_divisor()
        source: QueryIterator = self.dividend
        if self.with_join:
            source = HashSemiJoin(
                source,
                RelationSource(self.ctx, divisor_relation),
                self.divisor_names,
                expected_build_size=self.divisor_count,
            )
        if self.eliminate_duplicates:
            source = HashDistinct(source)
        counts = HashGroupCount(
            source,
            self.quotient_names,
            expected_groups=self.expected_quotient,
        )
        with self.ctx.tracer.span(
            "aggregate_division.aggregate_dividend", strategy=self._algorithm_label()
        ):
            counts.open()
        self._counts = counts

    def describe(self) -> str:
        join = "with join" if self.with_join else "no join"
        return f"HashAggregateDivision({join})"
