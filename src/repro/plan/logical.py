"""Logical plan nodes: *what* to compute, not *how*.

A logical plan is a small immutable tree built from five node kinds --
``Source``, ``Filter``, ``Project``, ``Distinct``, and ``Divide``.  The
query layer (:mod:`repro.query`) lowers its combinator pipelines into
this representation; the planner (:mod:`repro.plan.planner`) compiles
it into a physical :class:`~repro.executor.iterator.QueryIterator`
tree, consulting the cost advisor for every ``Divide`` node.

The module also ships :func:`evaluate_batches` (and :func:`evaluate`,
its rows flattened), a pure-Python reference evaluator.  It exists for
two jobs:

* **plan-time statistics** -- the planner streams the division inputs
  through it once, a batch at a time, to gather the exact
  cardinalities and duplicate flags the advisor prices (the same
  numbers the pre-planner query layer fed it, so algorithm choices are
  unchanged), and
* **testing** -- it is an executable specification the compiled
  streaming pipeline is checked against.

It charges no CPU units and traces nothing, but it is not free: a
:class:`StoredSourceNode` is read page by page through the buffer
pool, so every page it fixes is a metered (and fault-exposed) read
when the page is not already buffered.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, filterfalse
from typing import TYPE_CHECKING, Iterator

from repro.relalg.algebra import divide_set_semantics, division_attribute_split
from repro.relalg.predicates import Predicate
from repro.relalg.relation import Relation
from repro.relalg.schema import Schema
from repro.relalg.tuples import Row, projector

if TYPE_CHECKING:  # pragma: no cover - typing only (keeps logical storage-free)
    from repro.storage.catalog import StoredRelation


class LogicalNode:
    """Base class: every node knows its output schema and children."""

    @property
    def schema(self) -> Schema:  # pragma: no cover - abstract
        raise NotImplementedError

    def children(self) -> tuple["LogicalNode", ...]:
        return ()

    def describe(self) -> str:  # pragma: no cover - abstract
        raise NotImplementedError


@dataclass(frozen=True)
class SourceNode(LogicalNode):
    """A base input: an in-memory relation feeding the plan."""

    relation: Relation

    @property
    def schema(self) -> Schema:
        return self.relation.schema

    def describe(self) -> str:
        label = self.relation.name or "relation"
        return f"Source({label}, {len(self.relation)} tuples)"


@dataclass(frozen=True, eq=False)
class StoredSourceNode(LogicalNode):
    """A base input residing in a heap file (catalog-stored relation).

    Unlike :class:`SourceNode`, evaluating this node is *not* free: the
    rows live on a device, so both the planner's statistics pass and
    the compiled :class:`~repro.executor.scan.StoredRelationScan` read
    pages through the buffer pool, paying real (metered) I/O -- and,
    on a fault-injected device, facing real faults.  This is the node
    the chaos suite plans over, so the full planner -> executor path
    crosses the storage stack.
    """

    stored: "StoredRelation"

    @property
    def schema(self) -> Schema:
        return self.stored.schema

    def describe(self) -> str:
        return (
            f"StoredSource({self.stored.name}, {self.stored.record_count} tuples, "
            f"{self.stored.page_count} pages)"
        )


@dataclass(frozen=True)
class FilterNode(LogicalNode):
    """sigma: restrict the child by a predicate."""

    child: LogicalNode
    predicate: Predicate

    @property
    def schema(self) -> Schema:
        return self.child.schema

    def children(self) -> tuple[LogicalNode, ...]:
        return (self.child,)

    def describe(self) -> str:
        return f"Filter({self.predicate!r})"


@dataclass(frozen=True)
class ProjectNode(LogicalNode):
    """pi (bag semantics): keep the named attributes, keep every row."""

    child: LogicalNode
    names: tuple[str, ...]

    @property
    def schema(self) -> Schema:
        return self.child.schema.project(self.names)

    def children(self) -> tuple[LogicalNode, ...]:
        return (self.child,)

    def describe(self) -> str:
        return f"Project({', '.join(self.names)})"


@dataclass(frozen=True)
class DistinctNode(LogicalNode):
    """Duplicate elimination (first-occurrence order)."""

    child: LogicalNode

    @property
    def schema(self) -> Schema:
        return self.child.schema

    def children(self) -> tuple[LogicalNode, ...]:
        return (self.child,)

    def describe(self) -> str:
        return "Distinct"


@dataclass(frozen=True)
class DivideNode(LogicalNode):
    """For-all: dividend ``contains`` divisor, i.e. relational division.

    ``divisor_restricted`` records whether a ``Filter`` produced the
    divisor -- the semantic flag that disqualifies the no-join counting
    strategies (Section 2.2's correctness requirement).  It is carried
    on the node (not rediscovered from the tree) so rewrites that
    absorb the filter cannot lose it.
    """

    dividend: LogicalNode
    divisor: LogicalNode
    divisor_restricted: bool = False

    @property
    def quotient_names(self) -> tuple[str, ...]:
        names, _ = division_attribute_split(self.dividend.schema, self.divisor.schema)
        return names

    @property
    def divisor_names(self) -> tuple[str, ...]:
        _, names = division_attribute_split(self.dividend.schema, self.divisor.schema)
        return names

    @property
    def schema(self) -> Schema:
        return self.dividend.schema.project(self.quotient_names)

    def children(self) -> tuple[LogicalNode, ...]:
        return (self.dividend, self.divisor)

    def describe(self) -> str:
        restricted = ", restricted divisor" if self.divisor_restricted else ""
        return f"Divide(÷{','.join(self.divisor_names)}{restricted})"


def evaluate_batches(node: LogicalNode) -> Iterator[list[Row]]:
    """Reference evaluation a batch at a time: lists of the node's rows.

    A stored source yields one list per page
    (:meth:`~repro.storage.heapfile.HeapFile.scan_pages`), fixed when
    its list is asked for; an in-memory source yields its rows as one
    list (the relation's own; callers must not change a list).  Filter, Project and Distinct work on each list with
    ``filter``, ``map`` and ``dict.fromkeys``; a projection onto all
    attributes in order passes the lists through.  Lists may be empty.
    """
    if isinstance(node, SourceNode):
        yield node.relation.rows
        return
    if isinstance(node, StoredSourceNode):
        # The one node whose evaluation is *not* free: rows come off
        # the device through the buffer pool (metered, fault-exposed).
        stored = node.stored
        yield from stored.file.scan_pages(stored.codec)
        return
    if isinstance(node, FilterNode):
        test = node.predicate.compile(node.schema)
        for batch in evaluate_batches(node.child):
            yield list(filter(test, batch))
        return
    if isinstance(node, ProjectNode):
        if node.names == node.child.schema.names:
            yield from evaluate_batches(node.child)
            return
        extract = projector(node.child.schema, node.names)
        for batch in evaluate_batches(node.child):
            yield list(map(extract, batch))
        return
    if isinstance(node, DistinctNode):
        seen: set = set()
        for batch in evaluate_batches(node.child):
            fresh = list(filterfalse(seen.__contains__, dict.fromkeys(batch)))
            seen.update(fresh)
            yield fresh
        return
    if isinstance(node, DivideNode):
        dividend = Relation(node.dividend.schema, list(evaluate(node.dividend)))
        divisor = Relation(node.divisor.schema, list(evaluate(node.divisor)))
        yield divide_set_semantics(dividend, divisor).rows
        return
    raise TypeError(f"unknown logical node {type(node).__name__}")


def evaluate(node: LogicalNode) -> Iterator[Row]:
    """Reference evaluation: stream the node's rows.

    Used by the test suite as the semantics oracle for the compiled
    pipeline.  Rows come out in the same order the streaming operators
    produce them (input order for Filter/Project, first-occurrence
    order for Distinct); they are :func:`evaluate_batches` flattened.
    """
    return chain.from_iterable(evaluate_batches(node))


def render_logical(node: LogicalNode, indent: int = 0) -> str:
    """Indented textual rendering of a logical plan tree."""
    lines = ["  " * indent + node.describe()]
    lines.extend(render_logical(child, indent + 1) for child in node.children())
    return "\n".join(lines)
