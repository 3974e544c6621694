"""repro.plan -- the logical-plan -> physical-plan compiler.

This package is the planner layer the paper's Section 5.2 argues for:
the ``contains`` language construct tells the planner it is looking at
a relational *division*, and the planner -- not the execution layer --
chooses the physical algorithm.  The layering is::

    repro.query   (language: Query / ContainsQuery combinators)
        |  logical_plan()
        v
    repro.plan.logical    (Source / Filter / Project / Distinct / Divide)
        |  Planner.compile()  -- decide_division() consults the cost
        |                        advisor at plan time
        v
    repro.plan.physical   (QueryIterator trees over repro.executor /
        |                  repro.core operators; one streaming pipeline)
        v
    repro.executor / repro.storage   (open-next-close, buffer pool, disks)

Everything downstream of the compiler is the *same* open-next-close
iterator machinery the experiments use, so ``Query.run()`` streams one
pipeline end-to-end, ``explain()`` renders one uniform plan tree, and
``explain_analyze()`` keeps the repro.obs invariant that per-operator
profile deltas sum exactly to the global meters.
"""

from repro.plan.logical import (
    DistinctNode,
    DivideNode,
    FilterNode,
    LogicalNode,
    ProjectNode,
    SourceNode,
    evaluate,
    render_logical,
)
from repro.plan.operators import MaterializedDivision
from repro.plan.physical import (
    DIVISION_OPERATOR_STRATEGIES,
    PhysicalPlan,
    build_division_operator,
)
from repro.plan.planner import (
    DivisionDecision,
    Planner,
    collect_division_estimates,
    compile_plan,
    decide_division,
)

__all__ = [
    # logical
    "LogicalNode",
    "SourceNode",
    "FilterNode",
    "ProjectNode",
    "DistinctNode",
    "DivideNode",
    "evaluate",
    "render_logical",
    # physical
    "PhysicalPlan",
    "MaterializedDivision",
    "build_division_operator",
    "DIVISION_OPERATOR_STRATEGIES",
    # planner
    "Planner",
    "DivisionDecision",
    "collect_division_estimates",
    "compile_plan",
    "decide_division",
]
