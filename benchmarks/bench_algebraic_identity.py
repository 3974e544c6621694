"""Why the algebraic identity is "of merely theoretical validity" (§1).

Compares hash-division against the textbook reduction
π_q(R) − π_q((π_q(R) × S) − R) on a *sparse* dividend: a few
completionists hold every divisor value, everyone else holds three.
The identity's Cartesian product has |candidates| x |S| tuples no
matter how small the dividend is, so its cost (CPU + spooling the
product) races away quadratically while hash-division's stays linear
in the dividend.
"""

from conftest import once

from repro import divide
from repro.costmodel.units import PAPER_UNITS
from repro.core.algebraic_division import algebraic_division
from repro.executor.iterator import ExecContext
from repro.experiments.report import render_table
from repro.workloads.zipf import make_zipf_enrollment

SIZES = ((50, 200), (100, 400), (200, 800))


def _total_ms(ctx):
    return PAPER_UNITS.cpu_cost_ms(ctx.cpu) + ctx.io_stats.cost_ms()


def bench_identity_vs_hash_division(benchmark, write_result):
    def run_sweep():
        outcomes = []
        for divisor_size, candidates in SIZES:
            dividend, divisor, complete = make_zipf_enrollment(
                divisor_tuples=divisor_size,
                quotient_candidates=candidates,
                enrollments_per_candidate=3,
                skew=0.0,
                completionists=candidates // 20,
                seed=9,
            )
            hash_ctx = ExecContext()
            hash_quotient = divide(dividend, divisor, ctx=hash_ctx)
            identity_ctx = ExecContext()
            identity_quotient = algebraic_division(dividend, divisor, ctx=identity_ctx)
            assert hash_quotient.set_equal(identity_quotient)
            assert len(hash_quotient) >= complete
            outcomes.append(
                (
                    divisor_size,
                    candidates,
                    len(dividend),
                    _total_ms(hash_ctx),
                    _total_ms(identity_ctx),
                )
            )
        return outcomes

    outcomes = once(benchmark, run_sweep)

    ratios = [identity_ms / hash_ms for *_rest, hash_ms, identity_ms in outcomes]
    assert all(ratio > 1.5 for ratio in ratios)
    assert ratios[-1] > ratios[0]  # and the gap keeps widening

    write_result(
        "algebraic_identity",
        render_table(
            ("|S|", "candidates", "|R|", "hash-division ms",
             "algebraic identity ms"),
            outcomes,
            title="The Cartesian-product identity vs hash-division "
            "(sparse dividend: 5% completionists, 3 tuples each otherwise).",
        ),
    )
