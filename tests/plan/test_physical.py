"""Tests for the strategy factory and the physical plan wrapper."""

from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.partitioned import hash_division_with_overflow
from repro.costmodel.advisor import RankedStrategy, rank_strategies
from repro.costmodel.scenarios import TABLE2_COLUMNS
from repro.errors import (
    DivisionError,
    ExecutionError,
    HashTableOverflowError,
    QueryCancelledError,
    QueryTimeoutError,
    ReproError,
)
from repro.executor.iterator import ExecContext, run_to_relation
from repro.executor.scan import RelationSource
from repro.plan.physical import (
    DIVISION_OPERATOR_STRATEGIES,
    build_division_operator,
)
from repro.plan.logical import DivideNode, SourceNode, StoredSourceNode
from repro.plan.planner import (
    DivisionDecision,
    collect_division_estimates,
    compile_plan,
)
from repro.relalg import algebra
from repro.relalg.relation import Relation
from repro.storage.catalog import Catalog
from repro.storage.config import StorageConfig


def inputs(ctx, dividend_rows, divisor_rows):
    dividend = Relation.of_ints(("q", "d"), dividend_rows, name="R")
    divisor = Relation.of_ints(("d",), divisor_rows, name="S")
    return (
        RelationSource(ctx, dividend),
        RelationSource(ctx, divisor),
        dividend,
        divisor,
    )


class TestBuildDivisionOperator:
    @pytest.mark.parametrize("strategy", DIVISION_OPERATOR_STRATEGIES)
    def test_every_strategy_computes_the_division(self, ctx, strategy):
        rows = [(q, d) for q in range(6) for d in range(4)]
        rows += [(9, 0), (9, 1)]  # an incomplete candidate
        dividend_scan, divisor_scan, dividend, divisor = inputs(
            ctx, rows, [(d,) for d in range(4)]
        )
        operator = build_division_operator(strategy, dividend_scan, divisor_scan)
        result = run_to_relation(operator, name="out")
        expected = algebra.divide_set_semantics(dividend, divisor)
        assert result.set_equal(expected.rename("out"))
        assert ctx.memory.bytes_in_use == 0

    def test_duplicate_inputs_with_eliminate_duplicates(self, ctx):
        rows = [(1, 0), (1, 1), (1, 1), (2, 0)]
        dividend_scan, divisor_scan, *_ = inputs(ctx, rows, [(0,), (1,)])
        operator = build_division_operator(
            "hash-agg no join",
            dividend_scan,
            divisor_scan,
            eliminate_duplicates=True,
        )
        result = run_to_relation(operator)
        assert sorted(result.rows) == [(1,)]

    def test_unknown_strategy_rejected(self, ctx):
        dividend_scan, divisor_scan, *_ = inputs(ctx, [], [(1,)])
        with pytest.raises(DivisionError, match="unknown strategy"):
            build_division_operator("quantum", dividend_scan, divisor_scan)


class TestPhysicalPlan:
    def _plan(self, ctx, dividend_rows, divisor_rows):
        dividend = Relation.of_ints(("q", "d"), dividend_rows, name="R")
        divisor = Relation.of_ints(("d",), divisor_rows, name="S")
        node = DivideNode(SourceNode(dividend), SourceNode(divisor))
        return compile_plan(node, ctx), dividend, divisor

    def test_execute_names_the_result(self, ctx):
        plan, dividend, divisor = self._plan(
            ctx, [(1, 0), (1, 1), (2, 0)], [(0,), (1,)]
        )
        result = plan.execute(name="quotient")
        assert result.name == "quotient"
        assert sorted(result.rows) == [(1,)]

    def test_explain_contains_decision_and_tree(self, ctx):
        plan, *_ = self._plan(ctx, [(1, 0)], [(0,)])
        text = plan.explain()
        assert "Division strategy:" in text
        assert "Source" in text or "RelationSource" in text

    def test_overflow_falls_back_to_partitioned_division(self):
        """A tight budget overflows the single-phase hash table; the
        plan transparently re-runs through Section 3.4 partitioning and
        still produces the exact quotient."""
        dividend_rows = [(q, d) for q in range(300) for d in range(40)]
        divisor_rows = [(d,) for d in range(40)]
        ctx = ExecContext(memory_budget=4 * 1024)
        plan, dividend, divisor = self._plan(ctx, dividend_rows, divisor_rows)
        result = plan.execute(name="quotient")
        expected = algebra.divide_set_semantics(dividend, divisor)
        assert result.set_equal(expected)
        assert len(result) == 300
        assert ctx.memory.bytes_in_use == 0
        # Partitioning spooled to the temp device -- proof the fallback
        # (not a lucky single-phase pass) produced the answer.
        assert ctx.io_stats.counters("temp").transfers > 0

    def test_overflow_driver_runs_standalone(self):
        """The fallback sequence over the plan's own inputs, driven
        without a prior overflow, still yields the exact quotient."""
        ctx = ExecContext()
        plan, dividend, divisor = self._plan(
            ctx, [(1, 0), (1, 1), (2, 0), (3, 1), (3, 0)], [(0,), (1,)]
        )
        result = hash_division_with_overflow(
            plan.dividend_input, plan.divisor_input, name="quotient"
        )
        assert result.name == "quotient"
        assert result.set_equal(algebra.divide_set_semantics(dividend, divisor))
        assert ctx.memory.bytes_in_use == 0

    def test_empty_divisor_is_vacuously_true(self, ctx):
        plan, *_ = self._plan(ctx, [(1, 0), (2, 1), (1, 0)], [])
        result = plan.execute()
        assert sorted(result.rows) == [(1,), (2,)]


def stored_plan(strategy, dividend_rows, divisor_rows, budget):
    """A fresh context with both inputs stored cold in a small buffer
    pool (so scans, spills and spools do real I/O), and a plan compiled
    with ``strategy`` whatever the advisor would pick."""
    ctx = ExecContext(
        config=StorageConfig(
            page_size=512,
            sort_run_page_size=256,
            buffer_size=4 * 512,
            sort_buffer_size=4 * 512,
        ),
        memory_budget=budget,
    )
    catalog = Catalog(ctx.pool, ctx.data_disk)
    dividend = Relation.of_ints(("q", "d"), dividend_rows, name="R")
    divisor = Relation.of_ints(("d",), divisor_rows, name="S")
    node = DivideNode(
        StoredSourceNode(catalog.store(dividend)),
        StoredSourceNode(catalog.store(divisor)),
    )
    # Statistics from the in-memory copies, so the pool stays cold.
    estimates, quotient_names = collect_division_estimates(
        SourceNode(dividend), SourceNode(divisor)
    )
    decision = DivisionDecision(
        estimates, quotient_names, (RankedStrategy(strategy, 0.0),)
    )
    return compile_plan(node, ctx, decision=decision), dividend, divisor


def stepped_row_by_row(plan, rows_per_step, outcome):
    """The loop :meth:`PhysicalPlan.steps` runs, with every attempt --
    the root, then each fallback attempt -- pulled row by row with
    ``next()``.  An attempt that overflows is closed, its rows dropped
    and the I/O it spent yielded before the next attempt runs.  Sets
    ``outcome["fell_back"]`` when the root overflows."""
    ctx = plan.ctx
    mark = ctx.io_cost_ms()
    for number, attempt in enumerate(plan.attempts()):
        rows = []
        try:
            attempt.open()
            yield ctx.io_cost_ms() - mark
            mark = ctx.io_cost_ms()
            exhausted = False
            while not exhausted:
                for _ in range(rows_per_step):
                    row = attempt.next()
                    if row is None:
                        exhausted = True
                        break
                    rows.append(row)
                yield ctx.io_cost_ms() - mark
                mark = ctx.io_cost_ms()
            return rows
        except HashTableOverflowError as error:
            overflow = error
            if number == 0:
                outcome["fell_back"] = True
        finally:
            attempt.close()
        yield ctx.io_cost_ms() - mark
        mark = ctx.io_cost_ms()
    raise overflow


def drive(run):
    """Every delta a stepping generator yields, then its rows or the
    type of the error it raised."""
    deltas = []
    try:
        while True:
            deltas.append(next(run))
    except StopIteration as done:
        rows = done.value
        return deltas, list(getattr(rows, "rows", rows)), None
    except ReproError as exc:
        return deltas, None, type(exc)


def assert_nothing_held(ctx):
    assert ctx.pool.fixed_page_count() == 0
    assert ctx.memory.bytes_in_use == 0
    assert ctx.temp_disk.page_count == 0
    assert ctx.run_disk.page_count == 0


class TestSteps:
    @settings(max_examples=100, deadline=None)
    @given(
        strategy=st.sampled_from(TABLE2_COLUMNS),
        quotients=st.integers(0, 60),
        divisor_values=st.lists(st.integers(0, 9), min_size=1, max_size=10),
        misses=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 12)), max_size=15),
        rows_per_step=st.one_of(st.integers(1, 8), st.integers(1, 100)),
        budget=st.sampled_from([None, None, 1024, 2048, 4096]),
    )
    def test_steps_match_the_row_by_row_loop(
        self, strategy, quotients, divisor_values, misses, rows_per_step, budget
    ):
        """Same rows, same I/O delta at every yield and the same
        fallback as the row-by-row loop, for every strategy, whether
        the plan finishes, overflows into the fallback, or fails; and
        unless an error other than an overflow ends the run, the deltas
        sum to the meter's growth."""
        dividend_rows = [
            (q, d) for q in range(quotients) for d in divisor_values if (q + d) % 5
        ] + misses
        divisor_rows = [(d,) for d in divisor_values]

        plan, dividend, divisor = stored_plan(
            strategy, dividend_rows, divisor_rows, budget
        )
        start = plan.ctx.io_cost_ms()
        deltas, rows, error = drive(plan.steps(rows_per_step, "quotient"))
        assert_nothing_held(plan.ctx)
        if error in (None, HashTableOverflowError):
            # Exact cost conservation: every attempt's I/O, a failed
            # one's included, is part of a yielded delta.
            assert sum(deltas) == plan.ctx.io_cost_ms() - start

        reference, *_ = stored_plan(strategy, dividend_rows, divisor_rows, budget)
        outcome = {"fell_back": False}
        expected = drive(stepped_row_by_row(reference, rows_per_step, outcome))
        assert (deltas, rows, error) == expected
        assert plan.fell_back is outcome["fell_back"]
        assert plan.ctx.io_cost_ms() == reference.ctx.io_cost_ms()

        estimates = plan.decisions[0].estimates
        if error is None and strategy in {
            ranked.strategy for ranked in rank_strategies(estimates)
        }:
            oracle = algebra.divide_set_semantics(dividend, divisor)
            assert set(rows) == set(oracle.rows)

    @pytest.mark.parametrize("rows_per_step,stretches", [(10, 4), (29, 2), (30, 2), (31, 1)])
    def test_a_full_stretch_is_followed_by_another(self, rows_per_step, stretches):
        """Stepping stops after the first stretch that comes up short,
        so a full last stretch is followed by an empty one."""
        plan, *_ = stored_plan(
            "hash-division", [(q, d) for q in range(30) for d in range(3)],
            [(d,) for d in range(3)], None,
        )
        deltas, rows, error = drive(plan.steps(rows_per_step, "quotient"))
        assert error is None and len(rows) == 30
        assert len(deltas) == 1 + stretches
        assert deltas[0] > 0  # open() reads the cold divisor

    @pytest.mark.parametrize("rows_per_step", [0, -1])
    def test_rows_per_step_below_one_is_rejected(self, rows_per_step):
        """A stretch must take a row, or stepping never ends; at most
        1,000 yields are taken, so a loop that does not check fails
        here instead of hanging."""
        plan, *_ = stored_plan("hash-division", [(1, 0)], [(0,)], None)
        with pytest.raises(ExecutionError, match="rows_per_step"):
            list(islice(plan.steps(rows_per_step, "quotient"), 1000))
        assert_nothing_held(plan.ctx)

    @pytest.mark.parametrize("error", [QueryCancelledError, QueryTimeoutError])
    @pytest.mark.parametrize(
        "quotients,divisors", [(64, 8), (8, 64)], ids=["wide", "deep"]
    )
    @pytest.mark.parametrize("strategy", TABLE2_COLUMNS)
    @pytest.mark.parametrize("budget", [None, 2048], ids=["fits", "overflows"])
    def test_cancel_at_every_yield_leaks_nothing(
        self, strategy, budget, quotients, divisors, error
    ):
        """A cancellation or a deadline thrown in at any yield -- the
        open, each stretch, or any of the fallback's -- propagates, and
        the plan holds no frame, no memory and no spilled page
        afterwards, also when quotient clusters are still unread."""
        dividend_rows = [(q, d) for q in range(quotients) for d in range(divisors)]
        divisor_rows = [(d,) for d in range(divisors)]
        plan, *_ = stored_plan(strategy, dividend_rows, divisor_rows, budget)
        start = plan.ctx.io_cost_ms()
        deltas, rows, failure = drive(plan.steps(7, "quotient"))
        assert failure is None and len(rows) == quotients
        assert sum(deltas) == plan.ctx.io_cost_ms() - start
        # Under the small budget every hash table overflows in open()
        # on the wide shape; on the deep one, hash-agg without the
        # join keeps only its 8 quotient groups and fits.  The fallback
        # then yields at its own open and at each stretch (the wide
        # one quotient-partitions, the deep one divisor-partitions).
        falls_back = {
            "wide": {"hash-agg no join", "hash-agg with join", "hash-division"},
            "deep": {"hash-agg with join", "hash-division"},
        }["wide" if quotients > divisors else "deep"]
        fell_back = budget is not None and strategy in falls_back
        assert plan.fell_back is fell_back
        unread_clusters = []
        for at in range(len(deltas)):
            plan, *_ = stored_plan(strategy, dividend_rows, divisor_rows, budget)
            run = plan.steps(7, "quotient")
            for _ in range(at + 1):
                next(run)
            unread_clusters.append(plan.ctx.temp_disk.page_count > 0)
            with pytest.raises(error):
                run.throw(error("thrown in at a yield"))
            assert_nothing_held(plan.ctx)
            # The root overflows before the first yield, so even a run
            # ended there counts as a fallback.
            assert plan.fell_back is fell_back
        if plan.fell_back:
            assert len(deltas) > 2
            # A quotient-partitioned fallback is thrown into between
            # two clusters, with cluster files still on the temp device.
            assert any(unread_clusters) is (quotients > divisors)
