"""The measured unit of the experimental comparison, and its meter plumbing.

:func:`run_strategy` is the unit of Table 4: store the inputs cold on
the simulated disk, build the named strategy's plan over file scans,
drain it, and report model CPU milliseconds (Table 1 weights applied to
the operation counters) plus model I/O milliseconds (Table 3 weights
applied to the disk statistics) -- the same two-meter methodology the
paper used, with the abstract-unit meter standing in for ``getrusage``
(see DESIGN.md, substitutions).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.costmodel.scenarios import TABLE2_COLUMNS
from repro.costmodel.units import CostUnits, PAPER_UNITS
from repro.executor.iterator import ExecContext, run_to_relation
from repro.obs.profile import QueryProfile, build_profile
from repro.obs.span import Clock, MONOTONIC_CLOCK
from repro.executor.scan import StoredRelationScan
from repro.plan.physical import build_division_operator
from repro.relalg.relation import Relation
from repro.storage.catalog import Catalog

STRATEGIES: tuple[str, ...] = TABLE2_COLUMNS
"""Strategy names, matching the Table 2/Table 4 column order."""


@dataclass
class DivisionRun:
    """Measured outcome of one strategy on one workload."""

    strategy: str
    dividend_tuples: int
    divisor_tuples: int
    quotient_tuples: int
    cpu_ms: float
    io_ms: float
    wall_seconds: float
    io_detail: dict = field(default_factory=dict)
    #: EXPLAIN ANALYZE operator tree, present when the run's context
    #: carried a recording tracer (see ``repro.obs``).
    profile: QueryProfile | None = None

    @property
    def total_ms(self) -> float:
        """Model CPU + I/O milliseconds -- the Table 4 cell value."""
        return self.cpu_ms + self.io_ms


def run_strategy(
    strategy: str,
    ctx: ExecContext,
    catalog: Catalog,
    dividend_name: str,
    divisor_name: str,
    expected_quotient: int = 0,
    duplicate_free_inputs: bool = True,
    units: CostUnits = PAPER_UNITS,
    clock: Clock | None = None,
) -> DivisionRun:
    """Run one strategy over stored relations and meter it.

    The context's meters are snapshotted around the run, so several
    strategies can share one context (and its buffer pool state must be
    considered: for cold runs, store the relations with ``cold=True``
    immediately before each run, or use a fresh context per run as
    :func:`run_strategy_on_relations` does).

    Wall time comes from ``clock`` (default: the real monotonic clock);
    inject a :class:`repro.obs.span.FakeClock` for deterministic tests.
    When ``ctx`` carries a recording tracer, the returned run also
    carries the EXPLAIN ANALYZE :class:`~repro.obs.profile.QueryProfile`.
    """
    clock = clock or MONOTONIC_CLOCK
    stored_dividend = catalog.get(dividend_name)
    stored_divisor = catalog.get(divisor_name)
    cpu_before = ctx.cpu.snapshot()
    io_before = ctx.io_stats.snapshot()
    started = clock.now()
    # Duplicate-free inputs reproduce the paper's analyzed configuration
    # (no explicit duplicate-elimination steps); otherwise each strategy
    # gets the preprocessing it needs.
    eliminate = not duplicate_free_inputs
    plan = build_division_operator(
        strategy,
        StoredRelationScan(ctx, stored_dividend),
        StoredRelationScan(ctx, stored_divisor),
        expected_divisor=stored_divisor.record_count,
        expected_quotient=expected_quotient,
        eliminate_duplicates=eliminate,
        distinct_sorts=eliminate,
    )
    quotient = run_to_relation(plan, name="quotient")
    wall = clock.now() - started
    cpu_delta = ctx.cpu.delta_since(cpu_before)
    io_ms = ctx.io_stats.cost_since(io_before)
    profile = None
    if ctx.tracer.enabled:
        profile = build_profile(
            ctx.tracer, ctx, units=units, cpu=cpu_delta, io_ms=io_ms, wall_s=wall
        )
        metrics = ctx.tracer.metrics
        if metrics is not None:
            from repro.obs.metrics import absorb_cpu_counters

            absorb_cpu_counters(metrics, cpu_delta, strategy=strategy)
            metrics.gauge("repro_run_cpu_model_ms", strategy=strategy).set(
                units.cpu_cost_ms(cpu_delta)
            )
            metrics.gauge("repro_run_io_model_ms", strategy=strategy).set(io_ms)
            metrics.gauge("repro_run_wall_seconds", strategy=strategy).set(wall)
            if ctx.io_trace.enabled:
                from repro.obs.iotrace import absorb_io_event_log

                absorb_io_event_log(metrics, ctx.io_trace, strategy=strategy)
    return DivisionRun(
        strategy=strategy,
        dividend_tuples=stored_dividend.record_count,
        divisor_tuples=stored_divisor.record_count,
        quotient_tuples=len(quotient),
        cpu_ms=units.cpu_cost_ms(cpu_delta),
        io_ms=io_ms,
        wall_seconds=wall,
        io_detail={
            name: counters.transfers
            for name, counters in ctx.io_stats.devices.items()
        },
        profile=profile,
    )


def run_strategy_on_relations(
    strategy: str,
    dividend: Relation,
    divisor: Relation,
    expected_quotient: int = 0,
    duplicate_free_inputs: bool = True,
    memory_budget: int | None = None,
    units: CostUnits = PAPER_UNITS,
    clock: Clock | None = None,
    tracer=None,
    io_trace=None,
) -> DivisionRun:
    """Run one strategy on in-memory relations via a fresh cold context.

    The relations are stored on a fresh simulated disk (cold: all
    buffered pages dropped), then the strategy runs over file scans --
    the exact setup of the paper's experiments.  Pass a recording
    ``tracer`` (:class:`repro.obs.span.Tracer`) to get the run's
    EXPLAIN ANALYZE profile on ``DivisionRun.profile``; pass an
    ``io_trace`` (:class:`repro.obs.iotrace.IoEventLog`) to record one
    event per physical page transfer, with the log cleared after setup
    so its replayed cost matches ``DivisionRun.io_ms`` exactly (the
    :func:`repro.obs.iotrace.verify_conservation` check).
    """
    ctx = ExecContext(memory_budget=memory_budget, tracer=tracer, io_trace=io_trace)
    catalog = Catalog(ctx.pool, ctx.data_disk)
    catalog.store(dividend, name="dividend", cold=True)
    catalog.store(divisor, name="divisor", cold=True)
    # Storing is setup, not the measured experiment: reset the meters.
    ctx.reset_meters()
    return run_strategy(
        strategy,
        ctx,
        catalog,
        "dividend",
        "divisor",
        expected_quotient=expected_quotient,
        duplicate_free_inputs=duplicate_free_inputs,
        units=units,
        clock=clock,
    )
