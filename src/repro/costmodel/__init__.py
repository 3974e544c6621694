"""The paper's analytical cost model (Section 4).

* :mod:`repro.costmodel.units` -- Table 1 cost units,
* :mod:`repro.costmodel.sorting` -- the quicksort and external
  merge-sort cost formulas of Section 4.1,
* :mod:`repro.costmodel.formulas` -- the per-algorithm cost formulas of
  Sections 4.2-4.5, each returning an itemized
  :class:`~repro.costmodel.formulas.CostBreakdown`,
* :mod:`repro.costmodel.scenarios` -- the Section 4.6 scenario grid
  that regenerates Table 2.
"""

from repro.costmodel.advisor import (
    DivisionEstimates,
    RankedStrategy,
    rank_strategies,
)
from repro.costmodel.units import CostUnits
from repro.costmodel.formulas import (
    CostBreakdown,
    DivisionScenario,
    hash_aggregation_cost,
    hash_division_cost,
    naive_division_cost,
    sort_aggregation_cost,
)
from repro.costmodel.sorting import external_merge_sort_cost, quicksort_cost
from repro.costmodel.scenarios import TABLE2_COLUMNS, TABLE2_SIZES, table2_grid

__all__ = [
    "CostUnits",
    "DivisionEstimates",
    "RankedStrategy",
    "rank_strategies",
    "CostBreakdown",
    "DivisionScenario",
    "naive_division_cost",
    "sort_aggregation_cost",
    "hash_aggregation_cost",
    "hash_division_cost",
    "quicksort_cost",
    "external_merge_sort_cost",
    "TABLE2_SIZES",
    "TABLE2_COLUMNS",
    "table2_grid",
]
