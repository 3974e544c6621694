"""Ablation: value skew and hash partitioning (§3.4, §6).

The paper's R = Q x S workload is perfectly uniform; real enrolments
are not.  This bench runs hash-division and the partitioned drivers on
Zipf-skewed dividends and reports what skew does and does not hurt:

* single-phase hash-division is *insensitive* to divisor-value skew --
  the quotient table is keyed on quotient attributes, and popular
  divisor values just set the same bit more often;
* divisor partitioning inherits the skew: the cluster holding the hot
  values does most of the work, visible in per-cluster tuple counts.
"""

from conftest import once

from repro import divide
from repro.costmodel.units import PAPER_UNITS
from repro.executor.iterator import ExecContext
from repro.experiments.report import render_table
from repro.relalg.tuples import projector
from repro.workloads.zipf import make_zipf_enrollment

SKEWS = (0.0, 1.0, 2.0)


def _cluster_imbalance(dividend, partitions):
    """max/mean dividend-cluster size under divisor-attr hashing."""
    key_of = projector(dividend.schema, ("divisor_key",))
    sizes = [0] * partitions
    for row in dividend.rows:
        sizes[hash(key_of(row)) % partitions] += 1
    mean = sum(sizes) / partitions
    return max(sizes) / mean if mean else 1.0


def bench_skewed_enrollment(benchmark, write_result):
    def run_sweep():
        outcomes = []
        for skew in SKEWS:
            dividend, divisor, guaranteed = make_zipf_enrollment(
                divisor_tuples=64,
                quotient_candidates=400,
                enrollments_per_candidate=16,
                skew=skew,
                completionists=20,
                seed=12,
            )
            ctx = ExecContext()
            quotient = divide(dividend, divisor, ctx=ctx)
            assert len(quotient) >= guaranteed
            outcomes.append(
                (
                    skew,
                    len(dividend),
                    PAPER_UNITS.cpu_cost_ms(ctx.cpu),
                    _cluster_imbalance(dividend, 8),
                )
            )
        return outcomes

    outcomes = once(benchmark, run_sweep)

    costs = [cost for _skew, _n, cost, _imbalance in outcomes]
    # Single-phase hash-division cost is flat across skew levels
    # (same tuple count, same probe pattern on the quotient side).
    assert max(costs) < 1.15 * min(costs)
    # Divisor-hash cluster imbalance grows with skew.
    imbalances = [imbalance for *_rest, imbalance in outcomes]
    assert imbalances[-1] > imbalances[0]

    write_result(
        "ablation_skew",
        render_table(
            ("zipf skew", "|R|", "hash-division cpu ms",
             "divisor-cluster imbalance (max/mean, 8 clusters)"),
            outcomes,
            title="Zipf-skewed enrolment (|S|=64, 400 candidates, "
            "16 enrolments each, 20 completionists).",
        ),
    )
