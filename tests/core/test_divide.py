"""Tests for the top-level divide() entry point."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import divide
from repro.errors import DivisionError
from repro.executor.iterator import ExecContext
from repro.plan.physical import DIVISION_OPERATOR_STRATEGIES
from repro.relalg.relation import Relation
from repro.workloads.synthetic import make_exact_division, make_with_duplicates
from repro.workloads.university import figure2_courses, figure2_transcript

#: Quotient rows in order, every ``CpuCounters`` field and the memory
#: pool's peak, per (input, strategy), at ``PYTHONHASHSEED=0``.
#: Recorded from the function-style API this entry point replaced; each
#: entry's ``old_call`` names the call that produced it.
GOLDEN = json.loads((Path(__file__).parent / "divide_golden.json").read_text())

GOLDEN_INPUTS = {
    "figure2": lambda: (figure2_transcript(), figure2_courses()),
    "exact-20x30": lambda: make_exact_division(20, 30, seed=3),
    "duplicates-8x12": lambda: make_with_duplicates(8, 12, duplication_factor=1.0),
}


def _run_golden_cases() -> dict:
    """Every golden case through ``divide``, in this process."""
    results = {}
    for case in GOLDEN:
        input_name, strategy = case.split("/")
        dividend, divisor = GOLDEN_INPUTS[input_name]()
        ctx = ExecContext()
        result = divide(dividend, divisor, strategy=strategy, ctx=ctx)
        results[case] = {
            "rows": [list(row) for row in result.rows],
            "cpu": dataclasses.asdict(ctx.cpu),
            "peak_bytes": ctx.memory.stats.peak_bytes,
        }
    return results


@pytest.fixture
def inputs(transcript, courses):
    dividend = Relation.of_ints(("student_id", "course_no"), list(transcript.rows))
    return dividend, courses


class TestDispatch:
    def test_default_strategy_is_hash_division(self, inputs, expected_quotient):
        dividend, divisor = inputs
        ctx = ExecContext()
        result = divide(dividend, divisor, ctx=ctx)
        assert set(result.rows) == expected_quotient
        assert result.name == "quotient"
        assert ctx.cpu.bit_ops > 0  # only hash-division keeps bit maps

    @pytest.mark.parametrize("strategy", DIVISION_OPERATOR_STRATEGIES)
    def test_every_factory_strategy_runs(self, inputs, strategy, expected_quotient):
        dividend, divisor = inputs
        if "no join" in strategy:
            # Counting without the join needs every dividend course to
            # be a divisor course (Section 2.2).
            dividend = Relation(
                dividend.schema, [row for row in dividend if (row[1],) in divisor.as_set()]
            )
        result = divide(dividend, divisor, strategy=strategy)
        assert set(result.rows) == expected_quotient

    @pytest.mark.parametrize("strategy", ["quantum", "hash", "auto"])
    def test_unknown_strategy_rejected(self, inputs, strategy):
        dividend, divisor = inputs
        with pytest.raises(DivisionError, match="unknown strategy"):
            divide(dividend, divisor, strategy=strategy)

    def test_invalid_division_rejected_early(self):
        dividend = Relation.of_ints(("a",), [(1,)])
        divisor = Relation.of_ints(("b",), [(1,)])
        with pytest.raises(DivisionError):
            divide(dividend, divisor)

    def test_custom_name(self, inputs):
        dividend, divisor = inputs
        assert divide(dividend, divisor, name="winners").name == "winners"

    def test_ctx_threads_through(self, inputs):
        dividend, divisor = inputs
        ctx = ExecContext()
        divide(dividend, divisor, ctx=ctx)
        assert ctx.cpu.hashes > 0


@pytest.fixture(scope="module")
def golden_results() -> dict:
    """Run the cases in a child process with a fixed string-hash seed:
    hash-table chains over the Figure 2 strings, and so their probe
    counts and scan order, depend on it."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    child = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_matches_the_function_style_golden(case, golden_results):
    """Same rows in the same order, same counters, same memory peak."""
    expected = {key: GOLDEN[case][key] for key in ("rows", "cpu", "peak_bytes")}
    assert golden_results[case] == expected


class TestAdvisorPath:
    """``divide_with_advisor`` runs the planner's decision, not its own."""

    def test_strategy_is_the_planners_decision(self, inputs, expected_quotient):
        from repro.core.divide import divide_with_advisor
        from repro.plan.logical import DivideNode, SourceNode
        from repro.plan.planner import decide_division

        dividend, divisor = inputs
        quotient, strategy = divide_with_advisor(dividend, divisor, name="winners")
        node = DivideNode(SourceNode(dividend), SourceNode(divisor))
        assert strategy == decide_division(node).strategy
        assert set(quotient.rows) == expected_quotient
        assert quotient.name == "winners"

    def test_ctx_threads_through(self, inputs):
        from repro.core.divide import divide_with_advisor

        dividend, divisor = inputs
        ctx = ExecContext()
        divide_with_advisor(dividend, divisor, ctx=ctx)
        assert ctx.cpu.hashes > 0


if __name__ == "__main__":
    json.dump(_run_golden_cases(), sys.stdout)
