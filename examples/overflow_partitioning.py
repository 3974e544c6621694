"""Hash-table overflow and partitioned division (Section 3.4), hands on.

Runs a division whose hash tables exceed a small memory budget, shows
the single-phase operator overflowing, and then resolves it with both
partitioning strategies -- including the divisor-partitioned collection
phase, which is "exactly the division problem again".

Run with:  python examples/overflow_partitioning.py
"""

from repro import Relation
from repro.core.hash_division import HashDivision
from repro.core.partitioned import (
    divisor_partitioned_division,
    hash_division_with_overflow,
    quotient_partitioned_division,
)
from repro.errors import HashTableOverflowError
from repro.executor.iterator import ExecContext, run_to_relation
from repro.executor.scan import RelationSource


def main() -> None:
    # 2,000 quotient candidates x 30 divisor values = 60,000 tuples;
    # the quotient table alone wants ~130 KiB.
    divisor = Relation.of_ints(("d",), [(d,) for d in range(30)], name="S")
    dividend = Relation.of_ints(
        ("q", "d"),
        [(q, d) for q in range(2_000) for d in range(30)],
        name="R",
    )
    budget = 64 * 1024
    print(f"dividend {len(dividend)} tuples, divisor {len(divisor)}, "
          f"memory budget {budget // 1024} KiB\n")

    # -- single phase: overflows ---------------------------------------
    ctx = ExecContext(memory_budget=budget)
    plan = HashDivision(RelationSource(ctx, dividend), RelationSource(ctx, divisor))
    try:
        run_to_relation(plan)
        raise SystemExit("expected overflow!")
    except HashTableOverflowError as error:
        print(f"single-phase hash-division: OVERFLOW\n  ({error})\n")
    assert ctx.memory.bytes_in_use == 0  # the failed attempt cleaned up

    # -- explicit quotient partitioning ----------------------------------
    ctx = ExecContext(memory_budget=budget)
    quotient = quotient_partitioned_division(
        RelationSource(ctx, dividend), RelationSource(ctx, divisor), partitions=8
    )
    print(f"quotient partitioning, 8 phases: {len(quotient)} quotient tuples, "
          f"peak memory {ctx.memory.stats.peak_bytes // 1024} KiB, "
          f"spool I/O {ctx.io_stats.cost_ms('temp'):.0f} model ms")

    # -- explicit divisor partitioning (with collection phase) ------------
    ctx = ExecContext()
    quotient = divisor_partitioned_division(
        RelationSource(ctx, dividend), RelationSource(ctx, divisor), partitions=4
    )
    print(f"divisor partitioning, 4 phases + collection: "
          f"{len(quotient)} quotient tuples")

    # -- the adaptive driver ----------------------------------------------
    ctx = ExecContext(memory_budget=budget)
    quotient = hash_division_with_overflow(
        RelationSource(ctx, dividend),
        RelationSource(ctx, divisor),
        strategy="quotient",
    )
    print(f"adaptive driver: {len(quotient)} quotient tuples under the "
          f"{budget // 1024} KiB budget")
    assert len(quotient) == 2_000


if __name__ == "__main__":
    main()
