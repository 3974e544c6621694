"""A query layer with the paper's proposed ``contains`` construct.

The paper closes with a language recommendation: since "it is much
easier to implement a query optimizer that rewrites a division operator
into an aggregation operator than vice versa, universal quantification
should be included as a language construct in database query languages,
e.g., as a 'contains' clause" (Section 5.2).

:class:`Query` is that construct, in miniature::

    from repro.query import Query

    q = (
        Query(transcript)
        .project("student_id", "course_no")
        .contains(
            Query(courses)
            .where(AttributeContains("title", "database"))
            .project("course_no")
        )
    )
    students = q.run()

``contains`` compiles to relational division, and -- this is the point
of routing it through a language construct -- the planner *knows* it is
a division: it feeds the actual input statistics to the cost advisor,
including whether the divisor side was restricted by a ``where`` (which
disqualifies the no-join counting strategies) and whether duplicates
are possible (bag projections), and runs the cheapest correct
algorithm.  ``explain()`` shows the decision and the compiled plan.

Execution is *streaming*: ``run()`` lowers the combinator pipeline to a
logical plan (:mod:`repro.plan.logical`), compiles it into one
open-next-close :class:`~repro.executor.iterator.QueryIterator` tree
(:mod:`repro.plan.planner`), and drains that single pipeline -- no
intermediate :class:`~repro.relalg.relation.Relation` is materialized
per step, and the division algorithm chosen by the advisor at plan time
is just another physical operator in the same tree.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.executor.iterator import ExecContext
from repro.obs.profile import QueryProfile, build_profile
from repro.obs.span import Clock, Tracer
from repro.plan.logical import (
    DistinctNode,
    DivideNode,
    FilterNode,
    LogicalNode,
    ProjectNode,
    SourceNode,
)
from repro.plan.physical import PhysicalPlan
from repro.plan.planner import DivisionDecision, compile_plan, decide_division
from repro.relalg.predicates import Predicate
from repro.relalg.relation import Relation


@dataclass(frozen=True)
class ProfiledResult:
    """A profiled evaluation: the result relation plus its profile.

    Returned by ``run(profile=True)`` so the un-profiled call keeps its
    plain-:class:`~repro.relalg.relation.Relation` return type.
    """

    relation: Relation
    profile: QueryProfile


@dataclass(frozen=True)
class _Step:
    kind: str  # "where" | "project" | "distinct"
    predicate: Predicate | None = None
    names: tuple[str, ...] = ()


def _execute_profiled(
    compile_fn,
    ctx: ExecContext | None,
    name: str,
    clock: Clock | None,
) -> ProfiledResult:
    """Compile and run a plan under a recording tracer; build a profile.

    Shared by :meth:`Query.run` and :meth:`ContainsQuery.run`: installs
    a recording :class:`~repro.obs.span.Tracer` (restoring a borrowed
    context's tracer afterwards), snapshots the global meters around
    the run, and assembles the EXPLAIN ANALYZE profile whose
    per-operator deltas sum exactly to those global deltas.
    """
    tracer = Tracer(clock=clock)
    owns_ctx = ctx is None
    if owns_ctx:
        ctx = ExecContext(tracer=tracer)
        previous_tracer = None
    else:
        previous_tracer = ctx.tracer
        ctx.tracer = tracer
    cpu_before = ctx.cpu.snapshot()
    io_ms_before = ctx.io_cost_ms()
    started = tracer.clock.now()
    try:
        plan = compile_fn(ctx)
        relation = plan.execute(name=name)
    finally:
        if previous_tracer is not None:
            ctx.tracer = previous_tracer
    profile = build_profile(
        tracer,
        ctx,
        cpu=ctx.cpu.delta_since(cpu_before),
        io_ms=ctx.io_cost_ms() - io_ms_before,
        wall_s=tracer.clock.now() - started,
        decisions=plan.decisions,
    )
    return ProfiledResult(relation, profile)


class Query:
    """A tiny immutable pipeline of select/project steps over a relation.

    Every combinator returns a new ``Query``; nothing executes until
    :meth:`run` (or until the query is consumed by ``contains``).
    """

    def __init__(self, relation: Relation, _steps: tuple[_Step, ...] = ()) -> None:
        self.relation = relation
        self._steps = _steps

    # -- combinators ---------------------------------------------------

    def where(self, predicate: Predicate) -> "Query":
        """σ: restrict by a predicate."""
        return Query(self.relation, self._steps + (_Step("where", predicate=predicate),))

    def project(self, *names: str) -> "Query":
        """π (bag semantics): keep the named attributes."""
        return Query(self.relation, self._steps + (_Step("project", names=names),))

    def distinct(self) -> "Query":
        """Eliminate duplicate rows."""
        return Query(self.relation, self._steps + (_Step("distinct"),))

    def contains(self, divisor: "Query") -> "ContainsQuery":
        """∀: keep the groups that contain *every* divisor tuple.

        The divisor's attributes name the universally quantified
        columns; the remaining attributes of this query form the
        result.  Compiles to relational division.
        """
        return ContainsQuery(self, divisor)

    # -- planning ------------------------------------------------------

    @property
    def is_restricted(self) -> bool:
        """True when a ``where`` step restricts the pipeline -- the
        signal that division-by-counting would need a semi-join."""
        return any(step.kind == "where" for step in self._steps)

    def logical_plan(self) -> LogicalNode:
        """Lower the combinator pipeline to a logical plan tree."""
        node: LogicalNode = SourceNode(self.relation)
        for step in self._steps:
            if step.kind == "where":
                assert step.predicate is not None
                node = FilterNode(node, step.predicate)
            elif step.kind == "project":
                node = ProjectNode(node, step.names)
            else:
                node = DistinctNode(node)
        return node

    def compile(self, ctx: ExecContext | None = None) -> PhysicalPlan:
        """Compile the pipeline to an executable physical plan."""
        return compile_plan(self.logical_plan(), ctx)

    # -- execution ---------------------------------------------------------

    def run(
        self,
        name: str = "",
        profile: bool = False,
        clock: Clock | None = None,
        ctx: ExecContext | None = None,
    ) -> "Relation | ProfiledResult":
        """Compile and stream the pipeline to a relation.

        Args:
            name: Optional name for the result relation.
            profile: When true, execute under a recording
                :class:`~repro.obs.span.Tracer` and return a
                :class:`ProfiledResult` carrying the EXPLAIN ANALYZE
                :class:`~repro.obs.profile.QueryProfile` of the
                compiled operator tree instead of the bare relation.
            clock: Injectable clock for deterministic profiling tests.
            ctx: Execution context to run against; a fresh one is
                created when omitted.
        """
        if not profile:
            return self.compile(ctx).execute(name=name)
        return _execute_profiled(self.compile, ctx, name, clock)

    def explain(self) -> str:
        """The compiled physical plan tree (no execution)."""
        return self.compile().explain()

    def explain_analyze(
        self, clock: Clock | None = None, ctx: ExecContext | None = None
    ) -> QueryProfile:
        """Run the compiled pipeline; return its per-operator profile."""
        result = self.run(profile=True, clock=clock, ctx=ctx)
        assert isinstance(result, ProfiledResult)
        return result.profile

    @staticmethod
    def _describe_step(step: _Step) -> str:
        if step.kind == "where":
            return f"where({step.predicate!r})"
        if step.kind == "project":
            return f"project({', '.join(step.names)})"
        return "distinct()"

    def describe(self) -> str:
        """One-line pipeline description."""
        parts = [self.relation.name or "relation"]
        parts.extend(self._describe_step(step) for step in self._steps)
        return " . ".join(parts)


class ContainsQuery:
    """A planned universal quantification: dividend ``contains`` divisor."""

    def __init__(self, dividend: Query, divisor: Query) -> None:
        self.dividend = dividend
        self.divisor = divisor
        #: The profile of the most recent ``run(profile=True)``.
        self.last_profile: QueryProfile | None = None

    # -- planning ------------------------------------------------------

    def logical_plan(self) -> DivideNode:
        """Lower both pipelines into one ``Divide`` logical node."""
        return DivideNode(
            self.dividend.logical_plan(),
            self.divisor.logical_plan(),
            divisor_restricted=self.divisor.is_restricted,
        )

    def compile(self, ctx: ExecContext | None = None) -> PhysicalPlan:
        """Compile to a physical plan; the advisor picks the algorithm.

        The cost advisor is consulted *at plan time* with the exact
        input statistics; the chosen division algorithm becomes a
        physical operator in the single compiled iterator tree.
        """
        return compile_plan(self.logical_plan(), ctx)

    def plan(self) -> DivisionDecision:
        """Pick the division strategy without compiling the plan.

        The statistics come from the planner's zero-cost streaming pass
        over the logical plans.
        """
        return decide_division(self.logical_plan())

    # -- execution -----------------------------------------------------

    def run(
        self,
        ctx: ExecContext | None = None,
        name: str = "quotient",
        profile: bool = False,
        clock: Clock | None = None,
    ) -> "Relation | ProfiledResult":
        """Compile both sides and the division into one streaming plan.

        Args:
            ctx: Execution context; a fresh one is created when omitted.
            name: Name of the returned quotient relation.
            profile: When true, execute under a recording
                :class:`~repro.obs.span.Tracer` and return a
                :class:`ProfiledResult` whose profile is the full
                EXPLAIN ANALYZE operator tree of the compiled plan.
            clock: Injectable clock for deterministic profiling tests.
        """
        if not profile:
            return self.compile(ctx).execute(name=name)
        result = _execute_profiled(self.compile, ctx, name, clock)
        self.last_profile = result.profile
        return result

    def explain_analyze(
        self, ctx: ExecContext | None = None, clock: Clock | None = None
    ) -> QueryProfile:
        """Execute the compiled plan under tracing; return the tree.

        The reproduction's ``EXPLAIN ANALYZE``: per-iterator rows out,
        ``next()`` calls, Comp/Hash/Move/Bit deltas, buffer and I/O
        activity, and Table 1/Table 3 model milliseconds.  The
        per-operator deltas sum exactly to the run's global counters.
        """
        result = self.run(ctx=ctx, profile=True, clock=clock)
        assert isinstance(result, ProfiledResult)
        return result.profile

    def explain(self) -> str:
        """The textual plan: pipelines, the decision, the operator tree."""
        physical = self.compile()
        return "\n".join(
            [
                f"dividend: {self.dividend.describe()}",
                f"divisor:  {self.divisor.describe()}",
                physical.decisions[0].render(),
                "physical plan:",
                physical.root.explain(indent=1),
            ]
        )
