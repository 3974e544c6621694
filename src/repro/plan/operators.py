"""Physical operators owned by the planner layer.

The four paper algorithms already *are* iterators
(:class:`~repro.core.hash_division.HashDivision`,
:class:`~repro.core.naive_division.NaiveDivision`,
:class:`~repro.core.aggregate_division.SortAggregateDivision`,
:class:`~repro.core.aggregate_division.HashAggregateDivision`).  This
module adds the two relation-level methods as first-class physical
operators so the planner can put *any* division strategy -- including
the algebraic identity and the set-semantics oracle -- behind the same
open-next-close interface:

:class:`MaterializedDivision` is a stop-and-go operator like sort: its
``open()`` drains both inputs and runs the relation-level division, and
the quotient is handed out as one batch.  The Cartesian product inside the
algebraic identity is inherently materializing, so wrapping it this way
loses nothing -- and gains uniform EXPLAIN / EXPLAIN ANALYZE plumbing.
"""

from __future__ import annotations

from repro.errors import DivisionError, ExecutionError
from repro.core.algebraic_division import algebraic_division
from repro.executor.iterator import BufferedIterator, QueryIterator, drain, open_all
from repro.relalg.algebra import divide_set_semantics, division_attribute_split
from repro.relalg.relation import Relation

#: The relation-level division methods this operator can host.
_METHODS = ("algebraic", "oracle")


class MaterializedDivision(BufferedIterator):
    """Relation-level division behind the iterator protocol.

    Args:
        dividend: Input producing dividend tuples.
        divisor: Input producing divisor tuples.
        method: ``"algebraic"`` for the classical identity
            pi_q(R) - pi_q((pi_q(R) x S) - R) with its cost accounting,
            or ``"oracle"`` for the uncharged set-semantics definition.

    Both children are opened through
    :func:`~repro.executor.iterator.open_all`, so a failure while
    opening the second input closes the first before propagating --
    the error-path guarantee of the plan layer's state machine.
    """

    def __init__(
        self, dividend: QueryIterator, divisor: QueryIterator, method: str = "oracle"
    ) -> None:
        if dividend.ctx is not divisor.ctx:
            raise ExecutionError("division inputs must share one execution context")
        if method not in _METHODS:
            raise DivisionError(
                f"unknown materialized division method {method!r}; "
                f"expected one of {_METHODS}"
            )
        quotient_names, divisor_names = division_attribute_split(dividend.schema, divisor.schema)
        super().__init__(dividend.ctx, dividend.schema.project(quotient_names))
        self.dividend = dividend
        self.divisor = divisor
        self.method = method
        self.quotient_names = quotient_names
        self.divisor_names = divisor_names

    def _open(self) -> None:
        open_all((self.dividend, self.divisor))
        try:
            dividend = Relation(
                self.dividend.schema, drain(self.dividend), name="dividend"
            )
            divisor = Relation(self.divisor.schema, drain(self.divisor), name="divisor")
        finally:
            self.divisor.close()
            self.dividend.close()
        if self.method == "algebraic":
            quotient = algebraic_division(dividend, divisor, ctx=self.ctx)
        else:
            quotient = divide_set_semantics(dividend, divisor)
        self._set_buffer(list(quotient.rows))

    def children(self) -> tuple[QueryIterator, ...]:
        return (self.dividend, self.divisor)

    def describe(self) -> str:
        return f"MaterializedDivision(÷{','.join(self.divisor_names)}; {self.method})"
