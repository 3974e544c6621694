"""Tests for the planner: statistics, decisions, and compiled trees."""

import pytest

from repro.costmodel.advisor import DivisionEstimates, rank_strategies
from repro.errors import ExecutionError
from repro.metering import CpuCounters
from repro.plan.logical import (
    DistinctNode,
    DivideNode,
    FilterNode,
    LogicalNode,
    ProjectNode,
    SourceNode,
    StoredSourceNode,
)
from repro.plan.planner import (
    Planner,
    collect_division_estimates,
    compile_plan,
    decide_division,
    divisor_covers,
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


class TestDivisorCovers:
    """Section 2.2's precondition of no-join counting, as a predicate."""

    @staticmethod
    def covers(dividend: Relation, divisor: Relation) -> bool:
        return divisor_covers(dividend.schema, dividend.rows, divisor.schema, divisor.rows)

    def test_covered_divisor(self):
        assert self.covers(R([(1, 0), (1, 1), (2, 1)]), S([(0,), (1,), (2,)]))

    def test_divisor_short_by_one_value(self):
        assert not self.covers(R([(1, 0), (1, 1), (2, 2)]), S([(0,), (1,)]))

    def test_multi_attribute_divisor(self):
        """The divisor's attribute order need not be the dividend's."""
        dividend = Relation.of_ints(("a", "q", "b"), [(1, 7, 2), (3, 7, 4), (1, 8, 2)])
        divisor = Relation.of_ints(("b", "a"), [(2, 1), (4, 3)])
        assert self.covers(dividend, divisor)
        # (a, b) = (3, 2) occurs in no divisor tuple, though 3 and 2 do.
        dividend.append((3, 9, 2))
        assert not self.covers(dividend, divisor)

    def test_empty_divisor(self):
        assert not self.covers(R([(1, 0)]), S([]))
        assert self.covers(R([]), S([]))

    def test_empty_dividend(self):
        assert self.covers(R([]), S([(0,), (1,)]))


class TestStatisticsPassCost:
    def test_cold_stored_pass_reads_each_page_once_and_charges_no_cpu(
        self, ctx, catalog
    ):
        """The pass is not free: it reads a cold stored input through
        the buffer pool, one read per heap page, but charges no CPU
        unit."""
        rows = [(q, d) for q in range(300) for d in range(8)]
        dividend = catalog.store(R(rows), name="R")
        divisor = catalog.store(S([(d,) for d in range(8)]), name="S")
        assert dividend.page_count > 1
        ctx.reset_meters()
        estimates, _ = collect_division_estimates(
            ProjectNode(StoredSourceNode(dividend), ("q", "d")),
            StoredSourceNode(divisor),
        )
        assert estimates.dividend_tuples == len(rows)
        assert ctx.io_stats.totals().reads == dividend.page_count + divisor.page_count
        assert ctx.io_stats.totals().writes == 0
        assert ctx.io_cost_ms() > 0
        assert ctx.cpu == CpuCounters()


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
        assert decision.strategy == rank_strategies(decision.estimates)[0].strategy
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
            expected = rank_strategies(estimates)[0].strategy
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
        decided = decide_division(node)
        naive = next(r for r in decided.ranking if r.strategy == "naive")
        decision = replace(decided, ranking=(naive,))
        assert decision.strategy == "naive" != decided.strategy
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
