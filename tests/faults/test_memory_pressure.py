"""Memory faults: injected exhaustion and pressure degrade, not abort.

The contract: an injected :class:`~repro.errors.MemoryPoolError` inside
a hash-division build surfaces as
:class:`~repro.errors.HashTableOverflowError`, which the plan layer
degrades into partitioned processing (Section 3.4) -- the query still
returns the correct answer.
"""

import pytest

from repro.errors import HashTableOverflowError, MemoryPoolError
from repro.executor.iterator import ExecContext, run_to_relation
from repro.executor.scan import RelationSource
from repro.core.hash_division import HashDivision
from repro.faults import FaultInjector, FaultRule
from repro.relalg.algebra import divide_set_semantics
from repro.storage.memory import MemoryPool
from repro.workloads.synthetic import make_exact_division


class TestPoolHooks:
    def test_exhaust_rule_raises_memory_pool_error(self):
        pool = MemoryPool(budget=1 << 20)
        pool.injector = FaultInjector([FaultRule("exhaust", max_fires=1)], seed=0)
        with pytest.raises(MemoryPoolError, match="injected"):
            pool.allocate(64, "divisor-table")
        # One-shot: the next allocation succeeds.
        pool.allocate(64, "divisor-table")
        pool.free_all("divisor-table")

    def test_tag_scoped_exhaust_spares_other_tags(self):
        pool = MemoryPool(budget=1 << 20)
        pool.injector = FaultInjector(
            [FaultRule("exhaust", tag="quotient")], seed=0
        )
        pool.allocate(64, "divisor-table")  # not matched
        with pytest.raises(MemoryPoolError):
            pool.allocate(64, "quotient-table")
        pool.free_all("divisor-table")

    def test_pressure_shrinks_the_budget(self):
        pool = MemoryPool(budget=1000)
        pool.injector = FaultInjector(
            [FaultRule("pressure", max_fires=1, pressure_factor=0.5)], seed=0
        )
        pool.allocate(100, "build")
        assert pool.budget == 500
        assert pool.pressure_events == 1
        # Later allocations overflow the shrunken budget.
        with pytest.raises(MemoryPoolError, match="exhausted"):
            pool.allocate(600, "build")
        pool.free_all("build")

    def test_pressure_on_unbounded_pool_installs_a_budget(self):
        pool = MemoryPool(budget=None)
        pool.allocate(1000, "build")
        new_budget = pool.apply_pressure(0.5)
        assert new_budget == 500
        assert pool.budget == 500

    def test_apply_pressure_validates_factor(self):
        pool = MemoryPool(budget=1000)
        with pytest.raises(MemoryPoolError):
            pool.apply_pressure(0.0)
        with pytest.raises(MemoryPoolError):
            pool.apply_pressure(1.5)

    def test_no_injector_allocations_unaffected(self):
        pool = MemoryPool(budget=1000)
        assert pool.injector is None
        pool.allocate(500, "build")
        pool.free_all("build")
        assert pool.bytes_in_use == 0


class TestDegradation:
    def test_injected_exhaust_surfaces_as_overflow(self):
        """Mid-build exhaustion becomes the typed overflow error, with
        partial tables released."""
        dividend, divisor = make_exact_division(4, 8, seed=1)
        ctx = ExecContext()
        ctx.attach_fault_injector(
            FaultInjector([FaultRule("exhaust", tag="divisor-table")], seed=0)
        )
        op = HashDivision(
            RelationSource(ctx, dividend), RelationSource(ctx, divisor)
        )
        with pytest.raises(HashTableOverflowError, match="injected|memory pool"):
            run_to_relation(op)
        ctx.attach_fault_injector(None)
        assert ctx.memory.bytes_in_use == 0
        ctx.close()

    def test_plan_degrades_to_partitioned_and_answers(self):
        """The full chaos path in miniature: exhaustion fires once, the
        plan's overflow fallback partitions, and the answer is exact."""
        from repro.plan.logical import DivideNode, SourceNode
        from repro.plan.planner import compile_plan

        dividend, divisor = make_exact_division(4, 8, seed=2)
        oracle = set(divide_set_semantics(dividend, divisor))
        ctx = ExecContext()
        ctx.attach_fault_injector(
            FaultInjector([FaultRule("exhaust", max_fires=1)], seed=0)
        )
        plan = compile_plan(DivideNode(SourceNode(dividend), SourceNode(divisor)), ctx)
        try:
            result = plan.execute(name="quotient")
        finally:
            plan.close()
        assert set(result.rows) == oracle
        ctx.attach_fault_injector(None)
        assert ctx.memory.bytes_in_use == 0
        ctx.close()
