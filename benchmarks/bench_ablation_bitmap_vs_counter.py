"""Ablation: bit maps vs. counters in the quotient table (§3.3, sixth
observation).

Counters are cheaper per tuple (no bit map to allocate, no bit to set)
but are only safe on duplicate-free dividends.  This bench quantifies
the price of the bit maps and demonstrates the correctness cliff.
"""

from conftest import once

from repro.costmodel.units import PAPER_UNITS
from repro.core.hash_division import HashDivision
from repro.executor.iterator import ExecContext, run_to_relation
from repro.executor.scan import RelationSource
from repro.experiments.report import render_table
from repro.relalg import algebra
from repro.workloads.synthetic import make_exact_division, make_with_duplicates


def _run(dividend, divisor, mode):
    ctx = ExecContext()
    plan = HashDivision(
        RelationSource(ctx, dividend),
        RelationSource(ctx, divisor),
        mode=mode,
        expected_divisor=len(divisor),
    )
    quotient = run_to_relation(plan)
    return quotient, PAPER_UNITS.cpu_cost_ms(ctx.cpu), ctx.memory.stats.peak_bytes


def bench_bitmap_vs_counter(benchmark, write_result):
    dividend, divisor = make_exact_division(100, 400, seed=1)

    def run_both():
        return _run(dividend, divisor, "bitmap"), _run(dividend, divisor, "counter")

    (bitmap_q, bitmap_ms, bitmap_mem), (counter_q, counter_ms, counter_mem) = once(
        benchmark, run_both
    )

    assert bitmap_q.set_equal(counter_q)  # same answer without duplicates
    assert counter_ms <= bitmap_ms        # counters never cost more
    assert counter_mem <= bitmap_mem      # and never use more memory

    # The correctness cliff: duplicates fool counters, not bit maps.
    dup_dividend, dup_divisor = make_with_duplicates(20, 50, 1.0, seed=2)
    expected = algebra.divide_set_semantics(dup_dividend, dup_divisor)
    bitmap_result, *_ = _run(dup_dividend, dup_divisor, "bitmap")
    counter_result, *_ = _run(dup_dividend, dup_divisor, "counter")
    assert bitmap_result.set_equal(expected)
    counter_correct = counter_result.set_equal(expected)

    write_result(
        "ablation_bitmap_vs_counter",
        render_table(
            ("mode", "model ms", "peak bytes", "duplicate-safe"),
            [
                ("bitmap", bitmap_ms, bitmap_mem, True),
                ("counter", counter_ms, counter_mem, counter_correct),
            ],
            title="Hash-division quotient-table payload: bitmap vs counter "
            "(|S|=100, |Q|=400, R = Q x S).",
        ),
    )
