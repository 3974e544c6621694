"""Demand-driven, iterator-based query execution (the paper's Section 5.1).

Every operator implements the *open-next-close* protocol and pulls
tuples from its inputs on demand, a fetch-free batch at a time
(``next()`` hands a batch out tuple by tuple), so plans form trees
evaluated by demand-driven dataflow -- the engine the paper's
experiments ran on.  Operators meter their work into the shared
:class:`~repro.executor.iterator.ExecContext`: tuple comparisons, hash
computations, and bit operations on the CPU side, and page transfers
(via the buffer pool and simulated disks) on the I/O side.

Operator inventory (the division operators themselves live in
:mod:`repro.core`):

* sources -- :class:`~repro.executor.scan.StoredRelationScan`,
  :class:`~repro.executor.scan.TempFileScan`,
  :class:`~repro.executor.scan.RelationSource`
* mapping -- :class:`~repro.executor.filter.Select`,
  :class:`~repro.executor.project.Project`
* sorting -- :class:`~repro.executor.sort.ExternalSort` with early
  aggregation and duplicate elimination during run generation
* duplicate removal -- :class:`~repro.executor.distinct.HashDistinct`
* semi-joins (Section 2.2) -- :class:`~repro.executor.merge_join.MergeSemiJoin`,
  :class:`~repro.executor.hash_join.HashSemiJoin`,
  :class:`~repro.executor.index_join.IndexSemiJoin`
* aggregation -- :class:`~repro.executor.aggregate.SortedGroupCount`,
  :class:`~repro.executor.aggregate.HashGroupCount`; the divisor
  count is taken by the counting division operators as they drain
  the divisor
"""

from repro.executor.iterator import ExecContext, QueryIterator, run_to_relation
from repro.executor.scan import RelationSource, StoredRelationScan, TempFileScan
from repro.executor.filter import Select
from repro.executor.project import Project
from repro.executor.sort import ExternalSort
from repro.executor.merge_join import MergeSemiJoin
from repro.executor.hash_join import HashSemiJoin
from repro.executor.hash_table import ChainedHashTable
from repro.executor.aggregate import HashGroupCount, SortedGroupCount

__all__ = [
    "ExecContext",
    "QueryIterator",
    "run_to_relation",
    "RelationSource",
    "StoredRelationScan",
    "TempFileScan",
    "Select",
    "Project",
    "ExternalSort",
    "MergeSemiJoin",
    "HashSemiJoin",
    "ChainedHashTable",
    "HashGroupCount",
    "SortedGroupCount",
]
