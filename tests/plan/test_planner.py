"""Tests for the planner: statistics, decisions, and compiled trees."""

import pytest

from repro.costmodel.advisor import DivisionEstimates, choose_strategy
from repro.errors import ExecutionError
from repro.plan.logical import (
    DistinctNode,
    DivideNode,
    FilterNode,
    LogicalNode,
    ProjectNode,
    SourceNode,
)
from repro.plan.planner import (
    Planner,
    collect_division_estimates,
    compile_plan,
    decide_division,
)
from repro.relalg.predicates import ComparisonPredicate
from repro.relalg.relation import Relation


def R(rows):
    return Relation.of_ints(("q", "d"), rows, name="R")


def S(rows):
    return Relation.of_ints(("d",), rows, name="S")


class TestCollectEstimates:
    def test_exact_statistics(self):
        dividend = SourceNode(R([(1, 0), (1, 1), (2, 0), (1, 0)]))
        divisor = SourceNode(S([(0,), (1,), (1,)]))
        estimates, quotient_names = collect_division_estimates(dividend, divisor)
        assert quotient_names == ("q",)
        assert estimates.dividend_tuples == 4
        assert estimates.divisor_tuples == 2  # distinct
        assert estimates.quotient_tuples == 2
        assert estimates.may_contain_duplicates  # both inputs have dups

    def test_statistics_respect_pipeline_steps(self):
        dividend = ProjectNode(
            FilterNode(
                SourceNode(R([(1, 0), (1, 5), (2, 0)])),
                ComparisonPredicate("d", "<", 5),
            ),
            ("q", "d"),
        )
        divisor = DistinctNode(SourceNode(S([(0,), (0,)])))
        estimates, _ = collect_division_estimates(dividend, divisor)
        assert estimates.dividend_tuples == 2  # (1,5) filtered out
        assert estimates.divisor_tuples == 1
        assert not estimates.may_contain_duplicates

    def test_uncovered_divisor_reported_restricted(self):
        """No referential integrity: a dividend d-value missing from the
        divisor makes no-join counting incorrect, so the statistics pass
        flags the divisor restricted even without a Filter step."""
        dividend = SourceNode(R([(1, 0), (1, 99)]))
        divisor = SourceNode(S([(0,)]))
        estimates, _ = collect_division_estimates(dividend, divisor)
        assert estimates.divisor_restricted

    def test_covered_divisor_not_restricted(self):
        dividend = SourceNode(R([(1, 0), (2, 0)]))
        divisor = SourceNode(S([(0,), (7,)]))  # superset is fine
        estimates, _ = collect_division_estimates(dividend, divisor)
        assert not estimates.divisor_restricted

    def test_syntactic_restriction_is_kept(self):
        dividend = SourceNode(R([(1, 0)]))
        divisor = SourceNode(S([(0,)]))
        estimates, _ = collect_division_estimates(
            dividend, divisor, divisor_restricted=True
        )
        assert estimates.divisor_restricted


class TestDecideDivision:
    def test_compiled_plan_records_the_same_decision(self, ctx):
        node = DivideNode(
            SourceNode(R([(1, 0), (1, 1), (2, 0)])), SourceNode(S([(0,), (1,)]))
        )
        assert compile_plan(node, ctx).decisions == [decide_division(node)]

    @pytest.mark.parametrize(
        "dividend_rows",
        [
            [(1, 0), (1, 1), (2, 0)],  # clean: counting, nothing to remove
            [(1, 0), (1, 0), (1, 1)],  # duplicates
        ],
    )
    def test_duplicate_elimination_only_for_counting(self, dividend_rows):
        node = DivideNode(SourceNode(R(dividend_rows)), SourceNode(S([(0,), (1,)])))
        decision = decide_division(node)
        counting = decision.strategy.startswith(("sort-agg", "hash-agg"))
        assert decision.eliminate_duplicates == (
            counting and decision.estimates.may_contain_duplicates
        )


class TestPlanner:
    def test_records_one_decision_per_divide(self, ctx):
        node = DivideNode(SourceNode(R([(1, 0)])), SourceNode(S([(0,)])))
        planner = Planner(ctx)
        planner.compile(node)
        assert len(planner.decisions) == 1
        decision = planner.decisions[0]
        assert decision.strategy == choose_strategy(decision.estimates).strategy
        assert "Division strategy:" in decision.render()

    def test_restricted_divisor_never_gets_no_join_counting(self, ctx):
        node = DivideNode(
            SourceNode(R([(q, d) for q in range(50) for d in range(5)])),
            FilterNode(
                SourceNode(S([(d,) for d in range(5)])),
                ComparisonPredicate("d", "<", 5),
            ),
            divisor_restricted=True,
        )
        planner = Planner(ctx)
        planner.compile(node)
        assert "no join" not in planner.decisions[0].strategy

    def test_unknown_node_rejected(self, ctx):
        class Bogus(LogicalNode):
            pass

        with pytest.raises(ExecutionError):
            Planner(ctx).compile(Bogus())

    def test_table4_grid_choices_match_direct_advisor_call(self):
        """For every Table 2/Table 4 (|S|, |Q|) point, compiling the
        R = Q x S workload through the planner picks exactly the
        strategy a direct advisor call on the same statistics picks --
        the refactor moved the advisor to plan time without changing a
        single choice."""
        from repro.costmodel.scenarios import TABLE2_SIZES

        for divisor_tuples, quotient_tuples in TABLE2_SIZES:
            estimates = DivisionEstimates(
                dividend_tuples=divisor_tuples * quotient_tuples,
                divisor_tuples=divisor_tuples,
                quotient_tuples=quotient_tuples,
            )
            expected = choose_strategy(estimates).strategy
            dividend = Relation.of_ints(
                ("q", "d"),
                [
                    (q, d)
                    for q in range(quotient_tuples)
                    for d in range(divisor_tuples)
                ],
                name="R",
            )
            divisor = Relation.of_ints(
                ("d",), [(d,) for d in range(divisor_tuples)], name="S"
            )
            plan = compile_plan(
                DivideNode(SourceNode(dividend), SourceNode(divisor))
            )
            assert plan.decisions[0].strategy == expected, (
                divisor_tuples,
                quotient_tuples,
            )


class TestCompilePlan:
    def test_division_free_plan_has_no_decisions(self, ctx):
        node = ProjectNode(SourceNode(R([(1, 2)])), ("q",))
        plan = compile_plan(node, ctx)
        assert plan.decisions == []
        assert plan.dividend_input is None
        result = plan.execute()
        assert result.rows == [(1,)]

    def test_given_decision_skips_the_statistics_pass(
        self, ctx, statistics_passes
    ):
        from dataclasses import replace

        node = DivideNode(
            SourceNode(R([(1, 0), (1, 1), (2, 0)])), SourceNode(S([(0,), (1,)]))
        )
        decision = replace(decide_division(node), strategy="naive")
        del statistics_passes[:]
        plan = compile_plan(node, ctx, decision=decision)
        assert statistics_passes == []
        assert plan.decisions == [decision]
        assert sorted(plan.execute().rows) == [(1,)]

    def test_divide_root_exposes_overflow_inputs(self, ctx):
        node = DivideNode(SourceNode(R([(1, 0)])), SourceNode(S([(0,)])))
        plan = compile_plan(node, ctx)
        assert plan.dividend_input is not None
        assert plan.divisor_input is not None
