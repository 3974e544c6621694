"""Division via the classical operator identity (Section 1).

    R ÷ S  =  π_q(R) − π_q((π_q(R) × S) − R)

The paper dismisses this formulation as "of merely theoretical
validity since the equivalent expression contains a Cartesian product
operator".  It is provided here for three reasons: as an independent
correctness oracle, as the fifth competitor in the ablation benchmarks
(to show *how* impractical it is), and because a complete division
library should ship the textbook definition.

The heavy lifting lives in :func:`repro.relalg.algebra.divide_by_identity`;
this module adds cost accounting so the identity can appear in the same
experiment tables as the four real algorithms: the Cartesian product
charges one ``Move``-equivalent tuple copy and the set difference one
comparison per probed tuple.
"""

from __future__ import annotations

from repro.executor.iterator import ExecContext
from repro.relalg import algebra
from repro.relalg.relation import Relation
from repro.relalg.tuples import projector


def algebraic_division(
    dividend: Relation,
    divisor: Relation,
    ctx: ExecContext | None = None,
    name: str = "quotient",
) -> Relation:
    """Divide via π_q(R) − π_q((π_q(R) × S) − R), with cost accounting.

    The charge model: building the Cartesian product costs one
    hash-unit per produced tuple (set insertion) plus the tuple copies,
    the subtraction one comparison per tuple probed -- and, crucially,
    the product is spooled to and re-read from temporary storage, as a
    real Cartesian product operator must do, charged as sequential
    transfers on a dedicated ``identity-spool`` device.  The product
    has ``|Q| · |S|`` tuples *before* any pruning, which is the
    quadratic wall the paper dismisses the identity over.
    """
    quotient_names, _divisor_names = algebra.division_attribute_split(
        dividend.schema, divisor.schema
    )
    result = algebra.divide_by_identity(dividend, divisor, name=name)
    if ctx is not None:
        quotient_of = projector(dividend.schema, quotient_names)
        candidates = len({quotient_of(row) for row in dividend})
        distinct_divisor = len(set(map(tuple, divisor)))
        product_size = candidates * distinct_divisor
        cpu = ctx.cpu
        cpu.comparisons += len(dividend)          # candidate projection dedup
        cpu.comparisons += len(divisor)           # divisor dedup
        cpu.hashes += product_size                # building the product set
        cpu.comparisons += product_size           # probing R during subtraction
        cpu.comparisons += candidates             # final anti-join probe
        cpu.add_tuple_moves(
            product_size, dividend.schema.record_size, ctx.config.page_size
        )
        # The product is materialized: written out once and read back
        # for the subtraction, sequentially, on its own spool device.
        record_size = dividend.schema.record_size
        records_per_page = max(1, ctx.config.page_size // record_size)
        product_pages = -(-product_size // records_per_page)
        for page_no in range(product_pages):
            ctx.io_stats.record_transfer(
                "identity-spool", page_no, ctx.config.page_size, is_write=True
            )
        for page_no in range(product_pages):
            ctx.io_stats.record_transfer(
                "identity-spool", page_no, ctx.config.page_size, is_write=False
            )
    return result
