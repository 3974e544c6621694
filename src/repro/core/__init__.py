"""The four division algorithms -- the paper's subject matter.

* :mod:`repro.core.naive_division` -- the sort-based merge-scan
  algorithm of Smith (Section 2.1),
* :mod:`repro.core.aggregate_division` -- division by counting, with
  sort-based or hash-based aggregation, with or without the preceding
  (semi-)join (Section 2.2),
* :mod:`repro.core.hash_division` -- the paper's new algorithm
  (Section 3, Figure 1), with the early-output and counter variants of
  Section 3.3,
* :mod:`repro.core.algebraic_division` -- the classical operator
  identity, as an oracle and a cautionary benchmark (Section 1),
* :mod:`repro.core.partitioned` -- hash-table-overflow handling via
  quotient partitioning and divisor partitioning (Section 3.4),
* :mod:`repro.core.bitmap` -- word-at-a-time bit maps,
* :mod:`repro.core.divide` -- the high-level :func:`repro.divide`
  entry point that picks an algorithm.
"""

from repro.core.bitmap import Bitmap
from repro.core.hash_division import HashDivision, hash_division
from repro.core.naive_division import NaiveDivision, naive_division
from repro.core.aggregate_division import (
    hash_aggregate_division,
    sort_aggregate_division,
)
from repro.core.algebraic_division import algebraic_division
from repro.core.partitioned import (
    combined_partitioned_division,
    divisor_partitioned_division,
    hash_division_with_overflow,
    quotient_partitioned_division,
)
from repro.core.divide import (
    ALGORITHMS,
    divide,
    divide_with_advisor,
)
from repro.core.trace import DivisionTrace, TraceEvent, trace_hash_division

__all__ = [
    "Bitmap",
    "HashDivision",
    "hash_division",
    "NaiveDivision",
    "naive_division",
    "sort_aggregate_division",
    "hash_aggregate_division",
    "algebraic_division",
    "quotient_partitioned_division",
    "divisor_partitioned_division",
    "combined_partitioned_division",
    "hash_division_with_overflow",
    "divide",
    "divide_with_advisor",
    "ALGORITHMS",
    "DivisionTrace",
    "TraceEvent",
    "trace_hash_division",
]
