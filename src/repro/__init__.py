"""repro -- relational division: four algorithms and their performance.

A production-quality Python reproduction of Goetz Graefe's paper
*Relational Division: Four Algorithms and Their Performance* (Oregon
Graduate Center TR CS/E 88-022, January 1988; ICDE 1989), including:

* the four division algorithms -- naive sort-based division, division
  by sort-based counting, division by hash-based counting, and the
  paper's new **hash-division** -- plus the classical algebraic
  identity as an oracle,
* the substrate they ran on: a simulated record-oriented file system
  (pages, extents, buffer manager, B+-trees) with the paper's I/O cost
  accounting,
* the analytical cost model (Table 1/Table 2) and the experiment
  harness regenerating every table of the paper,
* hash-table overflow handling (quotient/divisor partitioning) and the
  shared-nothing multi-processor adaptation with bit-vector filtering.

Quick start::

    from repro import Relation, divide

    transcript = Relation.of_ints(
        ("student_id", "course_no"),
        [(1, 10), (1, 11), (2, 10), (2, 12)],
        name="transcript",
    )
    courses = Relation.of_ints(("course_no",), [(10,), (11,)], name="courses")
    quotient = divide(transcript, courses)       # hash-division
    assert quotient.rows == [(1,)]               # student 1 took all courses
    divide(transcript, courses, strategy="naive")  # any Table 2 strategy
"""

from repro.errors import (
    DivisionError,
    HashTableOverflowError,
    ReproError,
    SchemaError,
)
from repro.metering import CpuCounters
from repro.relalg import (
    Attribute,
    DataType,
    Predicate,
    Relation,
    Schema,
    algebra,
)
from repro.core import (
    Bitmap,
    HashDivision,
    NaiveDivision,
    algebraic_division,
    combined_partitioned_division,
    divide,
    divide_with_advisor,
    divisor_partitioned_division,
    hash_division_with_overflow,
    quotient_partitioned_division,
)
from repro.executor.iterator import ExecContext, run_to_relation
from repro.obs import (
    FakeClock,
    MetricsRegistry,
    QueryProfile,
    Tracer,
    build_profile,
)
from repro.query import ContainsQuery, ProfiledResult, Query
from repro.storage import StorageConfig

__version__ = "1.1.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "SchemaError",
    "DivisionError",
    "HashTableOverflowError",
    # model
    "Attribute",
    "DataType",
    "Schema",
    "Relation",
    "Predicate",
    "algebra",
    # algorithms
    "divide",
    "divide_with_advisor",
    "HashDivision",
    "NaiveDivision",
    "algebraic_division",
    "quotient_partitioned_division",
    "divisor_partitioned_division",
    "combined_partitioned_division",
    "hash_division_with_overflow",
    "Bitmap",
    # execution & metering
    "Query",
    "ContainsQuery",
    "ExecContext",
    "run_to_relation",
    "StorageConfig",
    "CpuCounters",
    # observability (repro.obs)
    "Tracer",
    "FakeClock",
    "MetricsRegistry",
    "QueryProfile",
    "ProfiledResult",
    "build_profile",
]
