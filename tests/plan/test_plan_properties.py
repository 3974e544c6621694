"""Property tests for the plan compiler.

The refactor's core promise: a ``Query ... contains`` pipeline compiled
to one streaming iterator tree is *extensionally equal* to the eager
reference semantics -- each step evaluated with the
:mod:`repro.relalg.algebra` operations on materialized relations, and
the division resolved by the set-semantics oracle.  Hypothesis drives
random relations, random step orders, restricted and duplicated
divisors, and tight memory budgets (which exercise the partitioned
overflow fallback) through both paths.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.costmodel.advisor import DivisionEstimates, rank_strategies
from repro.executor.iterator import ExecContext
from repro.query import Query
from repro.relalg import algebra
from repro.relalg.predicates import ComparisonPredicate
from repro.relalg.relation import Relation
from repro.relalg.tuples import projector

q_keys = st.integers(min_value=0, max_value=7)
d_keys = st.integers(min_value=100, max_value=105)
noise = st.integers(min_value=0, max_value=2)

dividend_rows = st.lists(st.tuples(q_keys, d_keys, noise), max_size=50)
divisor_rows = st.lists(st.tuples(d_keys, noise), max_size=8)

#: Random pipeline shapes: optional restriction, duplicate elimination
#: before/after the projection (different but both valid step orders).
pipeline_flags = st.fixed_dictionaries(
    {
        "restrict_dividend": st.booleans(),
        "dividend_distinct": st.sampled_from(("none", "before", "after")),
        "restrict_divisor": st.booleans(),
        "divisor_distinct": st.booleans(),
        "cut": d_keys,
    }
)

budgets = st.sampled_from((None, 64 * 1024, 12 * 1024))


def _distinct(relation: Relation) -> Relation:
    return Relation(
        relation.schema, list(dict.fromkeys(relation.rows)), name=relation.name
    )


def _build_queries(R: Relation, S: Relation, flags: dict):
    """The streaming pipelines and their eager reference, side by side."""
    dividend_query = Query(R)
    eager_dividend = R
    if flags["restrict_dividend"]:
        predicate = ComparisonPredicate("d", "<=", flags["cut"])
        dividend_query = dividend_query.where(predicate)
        eager_dividend = algebra.select(eager_dividend, predicate)
    if flags["dividend_distinct"] == "before":
        dividend_query = dividend_query.distinct()
        eager_dividend = _distinct(eager_dividend)
    dividend_query = dividend_query.project("q", "d")
    eager_dividend = algebra.project(eager_dividend, ("q", "d"), distinct=False)
    if flags["dividend_distinct"] == "after":
        dividend_query = dividend_query.distinct()
        eager_dividend = _distinct(eager_dividend)

    divisor_query = Query(S)
    eager_divisor = S
    if flags["restrict_divisor"]:
        predicate = ComparisonPredicate("d", ">=", flags["cut"])
        divisor_query = divisor_query.where(predicate)
        eager_divisor = algebra.select(eager_divisor, predicate)
    divisor_query = divisor_query.project("d")
    eager_divisor = algebra.project(eager_divisor, ("d",), distinct=False)
    if flags["divisor_distinct"]:
        divisor_query = divisor_query.distinct()
        eager_divisor = _distinct(eager_divisor)
    return dividend_query, divisor_query, eager_dividend, eager_divisor


@given(dividend_rows, divisor_rows, pipeline_flags, budgets)
@settings(max_examples=60, deadline=None)
def test_compiled_contains_matches_oracle_and_eager_reference(
    dividend, divisor, flags, budget
):
    R = Relation.of_ints(("q", "d", "x"), dividend, name="R")
    S = Relation.of_ints(("d", "y"), divisor, name="S")
    dividend_query, divisor_query, eager_dividend, eager_divisor = _build_queries(
        R, S, flags
    )
    expected = algebra.divide_set_semantics(eager_dividend, eager_divisor)

    ctx = ExecContext(memory_budget=budget)
    quotient = dividend_query.contains(divisor_query).run(ctx=ctx)

    assert set(quotient.rows) == set(expected.rows), (dividend, divisor, flags)
    assert not quotient.has_duplicates()
    assert quotient.schema.names == expected.schema.names
    # Nothing leaked: every hash table and bit map was released.
    assert ctx.memory.bytes_in_use == 0


@given(dividend_rows, divisor_rows, pipeline_flags)
@settings(max_examples=40, deadline=None)
def test_plan_time_advisor_choice_matches_eager_statistics(
    dividend, divisor, flags
):
    """The planner's statistics pass feeds the advisor the *same*
    numbers the pre-refactor eager path computed from materialized
    relations, so the chosen strategy is identical."""
    R = Relation.of_ints(("q", "d", "x"), dividend, name="R")
    S = Relation.of_ints(("d", "y"), divisor, name="S")
    dividend_query, divisor_query, eager_dividend, eager_divisor = _build_queries(
        R, S, flags
    )
    quotient_of = projector(eager_dividend.schema, ("q",))
    divisor_of = projector(eager_dividend.schema, ("d",))
    divisor_values = set(eager_divisor.rows)
    covered = {divisor_of(row) for row in eager_dividend} <= divisor_values
    estimates = DivisionEstimates(
        dividend_tuples=len(eager_dividend),
        divisor_tuples=len(divisor_values),
        quotient_tuples=len({quotient_of(row) for row in eager_dividend}),
        divisor_restricted=divisor_query.is_restricted or not covered,
        may_contain_duplicates=(
            eager_dividend.has_duplicates() or eager_divisor.has_duplicates()
        ),
    )
    expected_strategy = rank_strategies(estimates)[0].strategy

    plan = dividend_query.contains(divisor_query).compile()
    assert len(plan.decisions) == 1
    decision = plan.decisions[0]
    assert decision.strategy == expected_strategy
    assert decision.estimates == estimates


@given(dividend_rows, pipeline_flags)
@settings(max_examples=40, deadline=None)
def test_plain_query_pipeline_matches_eager_reference(dividend, flags):
    """A division-free pipeline streams to the same bag the eager
    step-by-step evaluation produced (order ignored, duplicates not)."""
    R = Relation.of_ints(("q", "d", "x"), dividend, name="R")
    dividend_query, _, eager_dividend, _ = _build_queries(
        R, Relation.of_ints(("d", "y"), [], name="S"), flags
    )
    result = dividend_query.run()
    assert sorted(result.rows) == sorted(eager_dividend.rows), (dividend, flags)
    assert result.schema.names == eager_dividend.schema.names
