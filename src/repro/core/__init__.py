"""The four division algorithms -- the paper's subject matter.

* :mod:`repro.core.naive_division` -- the sort-based merge-scan
  algorithm of Smith (Section 2.1),
* :mod:`repro.core.aggregate_division` -- division by counting, with
  sort-based or hash-based aggregation, with or without the preceding
  (semi-)join (Section 2.2),
* :mod:`repro.core.hash_division` -- the paper's new algorithm
  (Section 3, Figure 1), with the early-output and counter variants of
  Section 3.3 as :class:`HashDivision` options,
* :mod:`repro.core.algebraic_division` -- the classical operator
  identity, as an oracle and a cautionary benchmark (Section 1),
* :mod:`repro.core.partitioned` -- hash-table-overflow handling via
  quotient partitioning and divisor partitioning (Section 3.4),
* :mod:`repro.core.bitmap` -- word-at-a-time bit maps,
* :mod:`repro.core.divide` -- the high-level :func:`repro.divide`
  entry point, which runs any strategy the plan factory
  (:func:`repro.plan.physical.build_division_operator`) builds.

The algorithms are iterator operators; :func:`divide` is the one
relation-level entry point, and strategies are named as in Table 2.
"""

from repro.core.bitmap import Bitmap
from repro.core.hash_division import HashDivision
from repro.core.naive_division import NaiveDivision
from repro.core.algebraic_division import algebraic_division
from repro.core.partitioned import (
    combined_partitioned_division,
    divisor_partitioned_division,
    hash_division_with_overflow,
    quotient_partitioned_division,
)
from repro.core.divide import divide, divide_with_advisor
from repro.core.trace import DivisionTrace, TraceEvent, trace_hash_division

__all__ = [
    "Bitmap",
    "HashDivision",
    "NaiveDivision",
    "algebraic_division",
    "quotient_partitioned_division",
    "divisor_partitioned_division",
    "combined_partitioned_division",
    "hash_division_with_overflow",
    "divide",
    "divide_with_advisor",
    "DivisionTrace",
    "TraceEvent",
    "trace_hash_division",
]
