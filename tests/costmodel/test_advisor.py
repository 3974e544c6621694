"""Tests for the cost-based algorithm advisor."""

import pytest

from repro.errors import ExperimentError
from repro.costmodel.advisor import (
    DivisionEstimates,
    rank_strategies,
)
from repro.core.divide import divide_with_advisor
from repro.relalg import algebra
from repro.relalg.relation import Relation


def paper_point(s, q, **flags):
    return DivisionEstimates(
        dividend_tuples=s * q, divisor_tuples=s, quotient_tuples=q, **flags
    )


class TestRanking:
    @pytest.mark.parametrize("s,q", [(25, 25), (100, 100), (400, 400)])
    def test_clean_inputs_pick_hash_aggregation(self, s, q):
        """Section 7: hash-agg without semi-join is the fastest when it
        applies; the advisor agrees at every Table 2 size point."""
        assert rank_strategies(paper_point(s, q))[0].strategy == "hash-agg no join"

    @pytest.mark.parametrize("s,q", [(25, 25), (400, 400)])
    def test_restricted_divisor_picks_hash_division(self, s, q):
        """Once a semi-join would be required, hash-division wins --
        the paper's central claim."""
        picked = rank_strategies(paper_point(s, q, divisor_restricted=True))[0]
        assert picked.strategy == "hash-division"

    def test_restricted_divisor_excludes_no_join_strategies(self):
        ranked = rank_strategies(paper_point(100, 100, divisor_restricted=True))
        names = [entry.strategy for entry in ranked]
        assert "sort-agg no join" not in names
        assert "hash-agg no join" not in names
        assert "sort-agg with join" in names

    def test_duplicates_pick_hash_division(self):
        picked = rank_strategies(paper_point(100, 100, may_contain_duplicates=True))[0]
        assert picked.strategy == "hash-division"
        ranked = rank_strategies(paper_point(100, 100, may_contain_duplicates=True))
        counting = [e for e in ranked if "agg" in e.strategy]
        assert all("duplicate" in entry.note for entry in counting)

    def test_empty_divisor_only_direct_algorithms(self):
        ranked = rank_strategies(
            DivisionEstimates(dividend_tuples=1000, divisor_tuples=0)
        )
        assert [entry.strategy for entry in ranked] == ["hash-division", "naive"]

    def test_ranking_is_sorted(self):
        ranked = rank_strategies(paper_point(100, 100))
        costs = [entry.estimated_ms for entry in ranked]
        assert costs == sorted(costs)
        assert len(ranked) == 6

    def test_estimates_validated(self):
        with pytest.raises(ExperimentError):
            DivisionEstimates(dividend_tuples=-1, divisor_tuples=5)

    def test_quotient_defaults_to_assumed_case(self):
        estimates = DivisionEstimates(dividend_tuples=1000, divisor_tuples=10)
        assert estimates.estimated_quotient == 100


class TestDivideWithAdvisor:
    @pytest.fixture
    def inputs(self):
        dividend = Relation.of_ints(
            ("q", "d"), [(q, d) for q in range(15) for d in range(4)]
        )
        divisor = Relation.of_ints(("d",), [(d,) for d in range(4)])
        return dividend, divisor

    def test_returns_correct_quotient_and_strategy(self, inputs):
        dividend, divisor = inputs
        expected = algebra.divide_set_semantics(dividend, divisor)
        quotient, strategy = divide_with_advisor(dividend, divisor)
        assert quotient.set_equal(expected)
        assert strategy == "hash-agg no join"

    def test_restricted_divisor_switches_to_hash_division(self, inputs):
        dividend, divisor = inputs
        quotient, strategy = divide_with_advisor(
            dividend, divisor, divisor_restricted=True
        )
        assert strategy == "hash-division"
        assert len(quotient) == 15

    def test_duplicates_detected_automatically(self, inputs):
        dividend, divisor = inputs
        doubled = Relation.of_ints(("q", "d"), dividend.rows + dividend.rows)
        quotient, strategy = divide_with_advisor(doubled, divisor)
        assert strategy == "hash-division"
        assert len(quotient) == 15

    def test_correct_even_with_nonmatching_tuples_when_flagged(self):
        dividend = Relation.of_ints(
            ("q", "d"), [(1, 5), (1, 6), (2, 5), (2, 99)]
        )
        divisor = Relation.of_ints(("d",), [(5,), (6,)])
        quotient, strategy = divide_with_advisor(
            dividend, divisor, divisor_restricted=True
        )
        assert quotient.rows == [(1,)]
        # The advisor never picks a no-join counting strategy here.
        assert "no join" not in strategy

    def test_uncovered_divisor_detected_without_flag(self):
        # The dividend holds a divisor value (99) the divisor lacks, so
        # the no-join counting strategies would count it; the planner's
        # coverage check must refuse them even though nobody flagged
        # the divisor as restricted.
        dividend = Relation.of_ints(
            ("q", "d"), [(1, 5), (1, 6), (2, 5), (2, 99)]
        )
        divisor = Relation.of_ints(("d",), [(5,), (6,)])
        quotient, strategy = divide_with_advisor(dividend, divisor)
        assert quotient.set_equal(algebra.divide_set_semantics(dividend, divisor))
        assert "no join" not in strategy

    def test_empty_divisor(self, inputs):
        dividend, _ = inputs
        empty = Relation.of_ints(("d",), [])
        quotient, strategy = divide_with_advisor(dividend, empty)
        assert strategy == "hash-division"
        assert len(quotient) == 15


class TestAdvisorProperty:
    def test_advisor_pick_is_always_correct(self):
        """Whatever the advisor picks, running it yields the oracle
        quotient -- across a grid of input shapes."""
        import random

        from repro.relalg import algebra

        rng = random.Random(31)
        # (divisor_restricted flag, dividend has non-divisor tuples)
        for restricted, stray in ((False, False), (False, True), (True, True)):
            for _ in range(10):
                ns, nq = rng.randint(1, 10), rng.randint(1, 12)
                dv = rng.sample(range(1000), ns)
                rows = []
                for q in range(nq):
                    rows += [(q, d) for d in rng.sample(dv, rng.randint(0, ns))]
                    if stray:
                        rows += [(q, 5000 + q)]
                dividend = Relation.of_ints(("q", "d"), rows)
                divisor = Relation.of_ints(("d",), [(d,) for d in dv])
                expected = algebra.divide_set_semantics(dividend, divisor)
                quotient, _strategy = divide_with_advisor(
                    dividend, divisor, divisor_restricted=restricted
                )
                assert quotient.set_equal(expected)
