"""Tests for the experiment runner."""

import pytest

from repro.costmodel.scenarios import TABLE2_COLUMNS
from repro.errors import DivisionError
from repro.experiments.runner import (
    STRATEGIES,
    run_strategy,
    run_strategy_on_relations,
)
from repro.relalg import algebra
from repro.workloads.synthetic import make_exact_division, make_with_duplicates


class TestRunStrategy:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_every_strategy_produces_the_right_quotient(self, strategy):
        dividend, divisor = make_exact_division(10, 20, seed=1)
        run = run_strategy_on_relations(strategy, dividend, divisor,
                                        expected_quotient=20)
        assert run.quotient_tuples == 20
        assert run.dividend_tuples == 200
        assert run.divisor_tuples == 10

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_meters_are_positive(self, strategy):
        dividend, divisor = make_exact_division(10, 20, seed=1)
        run = run_strategy_on_relations(strategy, dividend, divisor)
        assert run.cpu_ms > 0
        assert run.io_ms > 0  # cold input scans always pay read I/O
        assert run.total_ms == pytest.approx(run.cpu_ms + run.io_ms)
        assert run.wall_seconds > 0

    def test_unknown_strategy_rejected(self):
        dividend, divisor = make_exact_division(2, 2)
        with pytest.raises(DivisionError, match="unknown strategy"):
            run_strategy_on_relations("quantum", dividend, divisor)

    def test_strategies_are_the_table2_columns(self):
        assert STRATEGIES is TABLE2_COLUMNS

    def test_duplicate_inputs_need_the_flag(self):
        dividend, divisor = make_with_duplicates(5, 10, duplication_factor=1.0)
        expected = algebra.divide_set_semantics(dividend, divisor)
        # Duplicate-safe configuration: all strategies correct.
        for strategy in STRATEGIES:
            run = run_strategy_on_relations(
                strategy, dividend, divisor, duplicate_free_inputs=False
            )
            assert run.quotient_tuples == len(expected), strategy

    def test_io_detail_reports_devices(self):
        dividend, divisor = make_exact_division(10, 50, seed=2)
        run = run_strategy_on_relations("hash-division", dividend, divisor)
        assert "data" in run.io_detail
        assert run.io_detail["data"] > 0


class TestRanking:
    def test_paper_ranking_on_a_mid_size_point(self):
        """The Table 4 shape at (|S|, |Q|) = (50, 50): hash beats sort,
        joins cost extra, hash-division lands within a whisker of
        hash-aggregation."""
        dividend, divisor = make_exact_division(50, 50, seed=3)
        totals = {}
        for strategy in STRATEGIES:
            run = run_strategy_on_relations(
                strategy, dividend, divisor, expected_quotient=50
            )
            totals[strategy] = run.total_ms
        assert totals["hash-agg no join"] < totals["hash-division"]
        assert totals["hash-division"] < totals["sort-agg no join"]
        assert totals["hash-division"] < totals["naive"]
        assert totals["sort-agg no join"] < totals["sort-agg with join"]
        assert totals["hash-division"] < totals["hash-agg with join"] * 1.05
        # Hash-division within ~25% of the fastest (paper: ~10% on the
        # MicroVAX; the exact gap is implementation-dependent).
        assert totals["hash-division"] / totals["hash-agg no join"] < 2.0


class TestSharedContext:
    def test_every_strategy_runs_over_one_catalog(self, ctx, catalog):
        dividend, divisor = make_exact_division(4, 4)
        catalog.store(dividend, name="R")
        catalog.store(divisor, name="S")
        for strategy in STRATEGIES:
            run = run_strategy(strategy, ctx, catalog, "R", "S", expected_quotient=4)
            assert run.quotient_tuples == 4, strategy


class TestClockInjection:
    def test_wall_time_is_deterministic_with_a_fake_clock(self):
        from repro.obs.span import FakeClock

        dividend, divisor = make_exact_division(5, 5, seed=2)
        run = run_strategy_on_relations(
            "hash-division",
            dividend,
            divisor,
            expected_quotient=5,
            clock=FakeClock(start=100.0),
        )
        # The fake clock never advances between the runner's two
        # readings, so the measured wall window is exactly zero --
        # the meters, not the clock, carry the result.
        assert run.wall_seconds == 0.0
        assert run.cpu_ms > 0

    def test_identical_runs_meter_identically(self):
        from repro.obs.span import FakeClock

        dividend, divisor = make_exact_division(5, 5, seed=2)
        runs = [
            run_strategy_on_relations(
                "sort-agg no join",
                dividend,
                divisor,
                expected_quotient=5,
                clock=FakeClock(),
            )
            for _ in range(2)
        ]
        assert runs[0].cpu_ms == runs[1].cpu_ms
        assert runs[0].io_ms == runs[1].io_ms
        assert runs[0].wall_seconds == runs[1].wall_seconds


class TestRunnerProfiles:
    def test_tracer_attaches_a_profile(self):
        from repro.obs.span import Tracer

        dividend, divisor = make_exact_division(5, 5, seed=3)
        run = run_strategy_on_relations(
            "hash-division",
            dividend,
            divisor,
            expected_quotient=5,
            tracer=Tracer(),
        )
        assert run.profile is not None
        assert run.profile.total_model_ms == pytest.approx(run.total_ms)

    def test_no_tracer_means_no_profile(self):
        dividend, divisor = make_exact_division(5, 5, seed=3)
        run = run_strategy_on_relations(
            "hash-division", dividend, divisor, expected_quotient=5
        )
        assert run.profile is None
