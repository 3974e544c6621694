"""Tests for the top-level divide() entry point."""

import pytest

from repro import divide
from repro.errors import DivisionError
from repro.core.divide import ALGORITHMS
from repro.executor.iterator import ExecContext
from repro.relalg.relation import Relation


@pytest.fixture
def inputs(transcript, courses):
    dividend = Relation.of_ints(("student_id", "course_no"), list(transcript.rows))
    return dividend, courses


class TestDispatch:
    def test_auto_uses_hash_division(self, inputs, expected_quotient):
        dividend, divisor = inputs
        result = divide(dividend, divisor)
        assert set(result.rows) == expected_quotient
        assert result.name == "quotient"

    def test_every_registered_algorithm_runs(self, inputs, expected_quotient):
        dividend, divisor = inputs
        for name in ALGORITHMS:
            kwargs = (
                {"with_join": True}
                if name in ("sort-aggregate", "hash-aggregate")
                else {}
            )
            result = divide(dividend, divisor, algorithm=name, **kwargs)
            assert set(result.rows) == expected_quotient, name

    def test_unknown_algorithm_rejected(self, inputs):
        dividend, divisor = inputs
        with pytest.raises(DivisionError):
            divide(dividend, divisor, algorithm="quantum")

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

    def test_algorithm_options_forwarded(self, inputs, expected_quotient):
        dividend, divisor = inputs
        result = divide(dividend, divisor, algorithm="hash", early_output=True)
        assert set(result.rows) == expected_quotient


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
