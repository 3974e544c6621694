"""Ablation: overflow strategy -- quotient vs divisor partitioning (§3.4).

Under one memory budget, measures both partitioning strategies on a
workload each strategy is suited to, plus the cross case, exposing the
complementary strengths the paper describes (quotient partitioning
shrinks the quotient table per phase but keeps the whole divisor table
resident; divisor partitioning shrinks the divisor table and bit maps
but keeps every quotient candidate per phase).
"""

from conftest import once

from repro.errors import HashTableOverflowError
from repro.costmodel.units import PAPER_UNITS
from repro.core.partitioned import PartitionedHashDivision
from repro.executor.iterator import ExecContext, run_to_relation
from repro.executor.scan import RelationSource
from repro.experiments.report import render_table
from repro.workloads.synthetic import make_exact_division


def _attempt(strategy, dividend, divisor, partitions, budget):
    ctx = ExecContext(memory_budget=budget)
    try:
        quotient = run_to_relation(
            PartitionedHashDivision(
                RelationSource(ctx, dividend),
                RelationSource(ctx, divisor),
                **{f"{strategy}_partitions": partitions},
            )
        )
    except HashTableOverflowError:
        return None
    temp_ms = ctx.io_stats.cost_ms("temp")
    return {
        "quotient": len(quotient),
        "cpu_ms": PAPER_UNITS.cpu_cost_ms(ctx.cpu),
        "spool_ms": temp_ms,
        "peak_bytes": ctx.memory.stats.peak_bytes,
    }


def bench_overflow_strategies(benchmark, write_result):
    # Many candidates, small divisor: quotient partitioning's territory.
    wide, wide_divisor = make_exact_division(20, 2000, seed=4)
    # Few candidates, large divisor: divisor partitioning's territory.
    deep_divisor_size = 2000
    deep, deep_divisor = make_exact_division(deep_divisor_size, 8, seed=5)
    budget = 48 * 1024

    def run_matrix():
        return {
            (workload, strategy): _attempt(strategy, dividend, divisor, 8, budget)
            for workload, dividend, divisor in (
                ("wide", wide, wide_divisor),
                ("deep", deep, deep_divisor),
            )
            for strategy in ("quotient", "divisor")
        }

    outcomes = once(benchmark, run_matrix)

    # Each strategy succeeds on its own territory under the budget.
    assert outcomes[("wide", "quotient")] is not None
    assert outcomes[("wide", "quotient")]["quotient"] == 2000
    assert outcomes[("deep", "divisor")] is not None
    assert outcomes[("deep", "divisor")]["quotient"] == 8
    # And divisor partitioning cannot shrink a huge quotient table.
    assert outcomes[("wide", "divisor")] is None

    rows = []
    for (workload, strategy), outcome in outcomes.items():
        if outcome is None:
            rows.append((workload, strategy, "overflow", "-", "-"))
        else:
            rows.append(
                (
                    workload,
                    strategy,
                    outcome["cpu_ms"],
                    outcome["spool_ms"],
                    outcome["peak_bytes"],
                )
            )
    write_result(
        "ablation_overflow",
        render_table(
            ("workload", "strategy", "cpu ms", "spool io ms", "peak bytes"),
            rows,
            title="Overflow handling under a 48 KiB budget, 8 partitions "
            "(wide: |Q|=2000, |S|=20; deep: |Q|=8, |S|=2000).",
        ),
    )
