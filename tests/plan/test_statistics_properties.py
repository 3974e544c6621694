"""Property tests for the batch reference evaluator and the statistics pass.

:func:`repro.plan.logical.evaluate_batches` works a page (or a whole
in-memory relation) at a time.  Over random Filter / Project /
Distinct trees on in-memory and stored sources, its flattened output
must be the row-at-a-time evaluation, row for row and in order, and
:func:`repro.plan.planner.collect_division_estimates` must report what
a brute-force ``Counter`` over the evaluated rows reports: |R|, the
distinct |S|, the distinct |Q|, the duplicate flag and the Section 2.2
coverage check.  The examples cover duplicates, empty inputs,
uncovered divisors and two-attribute divisors.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import example, given, settings, strategies as st

from repro.costmodel.advisor import DivisionEstimates
from repro.executor.iterator import ExecContext
from repro.plan.logical import (
    DistinctNode,
    DivideNode,
    FilterNode,
    LogicalNode,
    ProjectNode,
    SourceNode,
    StoredSourceNode,
    evaluate,
    evaluate_batches,
)
from repro.plan.planner import collect_division_estimates
from repro.relalg.predicates import ComparisonPredicate
from repro.relalg.relation import Relation
from repro.relalg.tuples import projector
from repro.storage.catalog import Catalog
from repro.storage.config import StorageConfig

#: Pages of a few rows each, so a stored source spans many pages and a
#: Distinct meets a row again on a later page.
SMALL_PAGES = StorageConfig(page_size=256)

#: The dividend source: quotient ``q``, divisor attributes ``a`` and
#: ``b``, and ``x``, which a projection may drop.
DIVIDEND_NAMES = ("q", "a", "b", "x")

#: The divisor source carries ``y`` beyond the divisor attributes; the
#: final projection drops it, which can make duplicates.
DIVISOR_SOURCE_NAMES = ("a", "b", "y")

small = st.integers(0, 3)
dividend_rows = st.lists(st.tuples(small, small, st.integers(0, 2), small), max_size=40)
divisor_rows = st.lists(st.tuples(small, st.integers(0, 2), st.integers(0, 1)), max_size=10)

#: Tree steps, applied bottom-up: a filter ``name <= cut`` (the name
#: chosen by index), a projection onto the names rotated by ``k``
#: (dropping ``x``/``y`` when ``k`` is odd), or duplicate elimination.
steps = st.lists(
    st.one_of(
        st.tuples(st.just("filter"), st.integers(0, 3), st.integers(0, 3)),
        st.tuples(st.just("project"), st.integers(0, 4)),
        st.tuples(st.just("distinct")),
    ),
    max_size=4,
)


def _apply(node: LogicalNode, ops, droppable: str) -> LogicalNode:
    for op in ops:
        names = node.schema.names
        if op[0] == "filter":
            node = FilterNode(node, ComparisonPredicate(names[op[1] % len(names)], "<=", op[2]))
        elif op[0] == "project":
            k = op[1]
            rotated = names[k % len(names):] + names[: k % len(names)]
            if k % 2:
                rotated = tuple(name for name in rotated if name != droppable)
            node = ProjectNode(node, rotated)
        else:
            node = DistinctNode(node)
    return node


def _source(relation: Relation, stored: bool, catalog: Catalog) -> LogicalNode:
    if stored:
        return StoredSourceNode(catalog.store(relation))
    return SourceNode(relation)


def evaluate_row_at_a_time(node: LogicalNode):
    """The row-at-a-time reference evaluator the batch one replaced."""
    if isinstance(node, SourceNode):
        yield from node.relation
    elif isinstance(node, StoredSourceNode):
        yield from node.stored.scan_tuples()
    elif isinstance(node, FilterNode):
        test = node.predicate.compile(node.schema)
        for row in evaluate_row_at_a_time(node.child):
            if test(row):
                yield row
    elif isinstance(node, ProjectNode):
        extract = projector(node.child.schema, node.names)
        for row in evaluate_row_at_a_time(node.child):
            yield extract(row)
    elif isinstance(node, DistinctNode):
        seen: set = set()
        for row in evaluate_row_at_a_time(node.child):
            if row not in seen:
                seen.add(row)
                yield row
    else:  # pragma: no cover - the trees here hold no Divide
        raise TypeError(type(node).__name__)


def brute_force_estimates(
    dividend: LogicalNode, divisor: LogicalNode, restricted: bool
) -> DivisionEstimates:
    """The statistics, counted with ``Counter`` over evaluated rows."""
    r = Counter(evaluate_row_at_a_time(dividend))
    s = Counter(evaluate_row_at_a_time(divisor))
    names = dividend.schema.names
    divisor_names = divisor.schema.names
    quotient_positions = [i for i, name in enumerate(names) if name not in divisor_names]
    divisor_positions = [names.index(name) for name in divisor_names]
    quotients = Counter(tuple(row[i] for i in quotient_positions) for row in r)
    covered = all(tuple(row[i] for i in divisor_positions) in s for row in r)
    return DivisionEstimates(
        dividend_tuples=sum(r.values()),
        divisor_tuples=len(s),
        quotient_tuples=len(quotients),
        divisor_restricted=restricted or not covered,
        may_contain_duplicates=any(n > 1 for n in r.values()) or any(n > 1 for n in s.values()),
    )


@given(
    r_rows=dividend_rows,
    s_rows=divisor_rows,
    divisor_names=st.sampled_from([("a",), ("b",), ("a", "b"), ("b", "a")]),
    r_steps=steps,
    s_steps=steps,
    r_stored=st.booleans(),
    s_stored=st.booleans(),
    restricted=st.booleans(),
)
@example(  # duplicates in both inputs, stored
    r_rows=[(1, 0, 0, 0), (1, 0, 0, 0), (2, 1, 0, 0)],
    s_rows=[(0, 0, 0), (0, 0, 1), (1, 0, 0)],
    divisor_names=("a",), r_steps=[], s_steps=[],
    r_stored=True, s_stored=True, restricted=False,
)
@example(  # empty dividend and empty divisor
    r_rows=[], s_rows=[], divisor_names=("a",), r_steps=[("distinct",)],
    s_steps=[], r_stored=True, s_stored=False, restricted=False,
)
@example(  # a dividend a-value the divisor lacks: not covered
    r_rows=[(1, 0, 0, 0), (1, 3, 0, 0)], s_rows=[(0, 0, 0)],
    divisor_names=("a",), r_steps=[], s_steps=[],
    r_stored=False, s_stored=True, restricted=False,
)
@example(  # two attributes, each value present, one pair missing
    r_rows=[(1, 0, 1, 0), (1, 1, 0, 0), (2, 1, 1, 0)],
    s_rows=[(0, 1, 0), (1, 0, 0)],
    divisor_names=("b", "a"), r_steps=[("project", 1)], s_steps=[("distinct",)],
    r_stored=True, s_stored=True, restricted=False,
)
@settings(max_examples=150, deadline=None)
def test_batches_flatten_to_rows_and_estimates_match_counter(
    r_rows, s_rows, divisor_names, r_steps, s_steps, r_stored, s_stored, restricted
):
    ctx = ExecContext(SMALL_PAGES)
    try:
        catalog = Catalog(ctx.pool, ctx.data_disk)
        r_source = _source(Relation.of_ints(DIVIDEND_NAMES, r_rows, name="R"), r_stored, catalog)
        s_source = _source(
            Relation.of_ints(DIVISOR_SOURCE_NAMES, s_rows, name="S"), s_stored, catalog
        )
        dividend = _apply(r_source, r_steps, "x")
        divisor = ProjectNode(_apply(s_source, s_steps, "y"), divisor_names)
        for node, source in ((dividend, r_source), (divisor, s_source)):
            batches = list(evaluate_batches(node))
            # One list per stored page, whatever the steps above it.
            stored = isinstance(source, StoredSourceNode)
            assert len(batches) == (source.stored.page_count if stored else 1)
            assert all(isinstance(batch, list) for batch in batches)
            rows = [row for batch in batches for row in batch]
            assert rows == list(evaluate_row_at_a_time(node))
            assert list(evaluate(node)) == rows
        estimates, quotient_names = collect_division_estimates(dividend, divisor, restricted)
        assert quotient_names == DivideNode(dividend, divisor).quotient_names
        assert estimates == brute_force_estimates(dividend, divisor, restricted)
    finally:
        ctx.close()
