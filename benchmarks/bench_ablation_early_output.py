"""Ablation: early-output (incremental) hash-division (§3.3, second
observation).

The early-output variant pays a counter test per fresh bit but starts
producing quotient tuples before the dividend is exhausted -- the
property that makes hash-division usable as a producer in a dataflow
system.  This bench measures the overhead and the production latency
(how many dividend tuples are consumed before the first quotient tuple
appears).
"""

from conftest import once

from repro.costmodel.units import PAPER_UNITS
from repro.core.hash_division import HashDivision
from repro.executor.iterator import ExecContext
from repro.executor.scan import RelationSource
from repro.experiments.report import render_table
from repro.workloads.synthetic import make_exact_division


def _consumed_before_first_output(dividend, divisor):
    """Dividend tuples consumed before the first quotient tuple."""
    ctx = ExecContext()
    source = RelationSource(ctx, dividend)
    plan = HashDivision(source, RelationSource(ctx, divisor), early_output=True)
    plan.open()
    first = plan.next()
    plan.close()
    assert first is not None
    return source.rows_produced


def _model_ms(dividend, divisor, early_output):
    ctx = ExecContext()
    from repro.executor.iterator import run_to_relation

    plan = HashDivision(
        RelationSource(ctx, dividend),
        RelationSource(ctx, divisor),
        early_output=early_output,
    )
    quotient = run_to_relation(plan)
    return len(quotient), PAPER_UNITS.cpu_cost_ms(ctx.cpu)


def bench_early_output(benchmark, write_result):
    dividend, divisor = make_exact_division(100, 200, seed=3)

    def run_both():
        return _model_ms(dividend, divisor, False), _model_ms(dividend, divisor, True)

    (stop_go_n, stop_go_ms), (early_n, early_ms) = once(benchmark, run_both)

    assert stop_go_n == early_n == 200
    # Early output costs at most a few percent extra.
    assert early_ms < 1.10 * stop_go_ms

    latency = _consumed_before_first_output(dividend, divisor)
    # Streaming: the first quotient tuple appears well before the end.
    assert latency < len(dividend)

    write_result(
        "ablation_early_output",
        render_table(
            ("variant", "model ms", "tuples before first output"),
            [
                ("stop-and-go", stop_go_ms, len(dividend)),
                ("early output", early_ms, latency),
            ],
            title="Hash-division: stop-and-go vs early output "
            "(|S|=100, |Q|=200, R = Q x S, shuffled).",
        ),
    )
