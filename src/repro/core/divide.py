"""The high-level :func:`divide` entry point.

``divide(R, S)`` runs relational division over two in-memory relations
with a named strategy.  The names are the plan factory's
(:data:`repro.plan.physical.DIVISION_OPERATOR_STRATEGIES`): the six
Table 2 strategies plus ``"algebraic"`` and ``"oracle"``.  The default
follows the paper's conclusion that hash-division is "both fast and
general" (Section 7).
"""

from __future__ import annotations

from repro.executor.iterator import ExecContext, run_to_relation
from repro.executor.scan import RelationSource
from repro.plan.physical import build_division_operator
from repro.relalg.relation import Relation


def divide(
    dividend: Relation,
    divisor: Relation,
    strategy: str = "hash-division",
    ctx: ExecContext | None = None,
    name: str = "quotient",
) -> Relation:
    """Compute ``dividend ÷ divisor``.

    Args:
        dividend: Relation whose schema contains the divisor attributes
            plus at least one quotient attribute.
        divisor: Relation of the universally quantified values.
        strategy: One of
            :data:`~repro.plan.physical.DIVISION_OPERATOR_STRATEGIES`.
            The counting strategies run with duplicate elimination, and
            naive division sorts with it.
        ctx: Execution context for cost metering; a fresh unbudgeted
            context is created when omitted.
        name: Name of the returned quotient relation.

    Returns:
        The quotient relation (duplicate-free).

    Raises:
        DivisionError: for an unknown strategy name or schemas that do
            not form a valid division.
    """
    ctx = ctx or ExecContext()
    operator = build_division_operator(
        strategy,
        RelationSource(ctx, dividend),
        RelationSource(ctx, divisor),
        expected_divisor=len(divisor),
        eliminate_duplicates=True,
    )
    return run_to_relation(operator, name=name)


def divide_with_advisor(
    dividend: Relation,
    divisor: Relation,
    divisor_restricted: bool = False,
    ctx: ExecContext | None = None,
    name: str = "quotient",
) -> tuple[Relation, str]:
    """Divide using the planner's pick; returns (quotient, strategy).

    Compiles the division through :func:`repro.plan.planner.compile_plan`,
    so the cost advisor sees the planner's exact input statistics,
    including its Section 2.2 coverage check.  ``divisor_restricted``
    must be set when the divisor is a selection result whose values may
    miss some dividend tuples -- the advisor then refuses the no-join
    counting strategies (Section 2.2's correctness requirement).
    """
    from repro.plan.logical import DivideNode, SourceNode
    from repro.plan.planner import compile_plan

    node = DivideNode(SourceNode(dividend), SourceNode(divisor), divisor_restricted)
    plan = compile_plan(node, ctx)
    return plan.execute(name=name), plan.decisions[0].strategy
