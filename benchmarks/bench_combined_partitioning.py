"""Ablation: combined quotient x divisor partitioning (§3.4).

The paper's "fourth question": when both the divisor and the quotient
are too large for memory, neither single strategy fits and the
techniques must be combined.  This bench shows the memory cliff for
each single strategy and the combined strategy fitting under the same
budget, with its extra spool cost on display.
"""

from conftest import once

from repro.errors import HashTableOverflowError
from repro.costmodel.units import PAPER_UNITS
from repro.core.partitioned import PartitionedHashDivision
from repro.executor.iterator import ExecContext, run_to_relation
from repro.executor.scan import RelationSource
from repro.experiments.report import render_table
from repro.relalg.relation import Relation

BUDGET = 24 * 1024


def _attempt(label, dividend, divisor, **partitioning):
    ctx = ExecContext(memory_budget=BUDGET)
    try:
        quotient = run_to_relation(
            PartitionedHashDivision(
                RelationSource(ctx, dividend),
                RelationSource(ctx, divisor),
                **partitioning,
            )
        )
    except HashTableOverflowError:
        return (label, "overflow", "-", "-")
    return (
        label,
        len(quotient),
        PAPER_UNITS.cpu_cost_ms(ctx.cpu) + ctx.io_stats.cost_ms(),
        ctx.memory.stats.peak_bytes,
    )


def bench_combined_partitioning(benchmark, write_result):
    # Both tables large: 500 candidates x 500 divisor values.
    divisor = Relation.of_ints(("d",), [(d,) for d in range(500)], name="S")
    dividend = Relation.of_ints(
        ("q", "d"), [(q, d) for q in range(500) for d in range(500)], name="R"
    )

    def run_matrix():
        return [
            _attempt("quotient only (8)", dividend, divisor, quotient_partitions=8),
            _attempt("divisor only (8)", dividend, divisor, divisor_partitions=8),
            _attempt(
                "combined (8 x 8)",
                dividend,
                divisor,
                quotient_partitions=8,
                divisor_partitions=8,
            ),
        ]

    rows = once(benchmark, run_matrix)

    by_label = {row[0]: row for row in rows}
    # Divisor-only cannot shrink the 500-candidate quotient table;
    # quotient-only cannot shrink the 500-value divisor table.
    assert by_label["divisor only (8)"][1] == "overflow"
    assert by_label["quotient only (8)"][1] == "overflow"
    # The combination fits and is correct (everyone qualifies).
    assert by_label["combined (8 x 8)"][1] == 500

    write_result(
        "combined_partitioning",
        render_table(
            ("strategy", "quotient", "total model ms", "peak bytes"),
            rows,
            title=f"Both tables large (|Q|=|S|=500) under a "
            f"{BUDGET // 1024} KiB budget.",
        ),
    )
