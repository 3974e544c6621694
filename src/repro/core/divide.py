"""The high-level :func:`divide` entry point.

``divide(R, S)`` runs relational division over two in-memory relations
with a chosen -- or automatically chosen -- algorithm.  The automatic
choice follows the paper's conclusions: hash-division, being "both fast
and general" (Section 7), is the default whenever it applies; the other
algorithms are available by name for comparison and teaching.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import DivisionError
from repro.core.aggregate_division import (
    hash_aggregate_division,
    sort_aggregate_division,
)
from repro.core.algebraic_division import algebraic_division
from repro.core.hash_division import hash_division
from repro.core.naive_division import naive_division
from repro.executor.iterator import ExecContext
from repro.relalg.algebra import divide_set_semantics, division_attribute_split
from repro.relalg.relation import Relation

DivisionFunction = Callable[..., Relation]

ALGORITHMS: dict[str, DivisionFunction] = {
    "hash": hash_division,
    "naive": naive_division,
    "sort-aggregate": sort_aggregate_division,
    "hash-aggregate": hash_aggregate_division,
    "algebraic": algebraic_division,
    "oracle": lambda dividend, divisor, ctx=None, name="quotient": (
        divide_set_semantics(dividend, divisor, name=name)
    ),
}
"""Algorithm registry: name -> callable(dividend, divisor, ...)."""


def divide(
    dividend: Relation,
    divisor: Relation,
    algorithm: str = "auto",
    ctx: ExecContext | None = None,
    name: str = "quotient",
    **options,
) -> Relation:
    """Compute ``dividend ÷ divisor``.

    Args:
        dividend: Relation whose schema contains the divisor attributes
            plus at least one quotient attribute.
        divisor: Relation of the universally quantified values.
        algorithm: One of ``"auto"``, ``"hash"``, ``"naive"``,
            ``"sort-aggregate"``, ``"hash-aggregate"``,
            ``"algebraic"``, or ``"oracle"``.
        ctx: Execution context for cost metering; a fresh unbudgeted
            context is created when omitted.
        name: Name of the returned quotient relation.
        **options: Algorithm-specific keywords, e.g. ``with_join=True``
            for the aggregation strategies, ``early_output=True`` or
            ``mode="counter"`` for hash-division.

    Returns:
        The quotient relation (duplicate-free).

    Raises:
        DivisionError: for an unknown algorithm name or schemas that do
            not form a valid division.
    """
    division_attribute_split(dividend, divisor)  # validate early
    chosen = _resolve(algorithm, divisor)
    function = ALGORITHMS[chosen]
    return function(dividend, divisor, ctx=ctx, name=name, **options)


def _resolve(algorithm: str, divisor: Relation) -> str:
    if algorithm == "auto":
        # Hash-division is the paper's general answer; only the
        # aggregation strategies cannot handle an empty divisor, and
        # hash-division handles duplicates in either input, so there is
        # no input shape that forces a different automatic choice.
        return "hash"
    if algorithm not in ALGORITHMS:
        raise DivisionError(
            f"unknown division algorithm {algorithm!r}; "
            f"expected one of {sorted(ALGORITHMS)} or 'auto'/'advisor'"
        )
    return algorithm


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
