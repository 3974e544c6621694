"""A small, obviously-correct in-memory relational algebra.

These functions exist as the *correctness oracle* for the metered,
storage-backed algorithms: every division algorithm in
:mod:`repro.core` is tested against :func:`divide_set_semantics` and
the algebraic identity :func:`divide_by_identity`

    R ÷ S  =  π_q(R) − π_q((π_q(R) × S) − R)

which the paper cites (Section 1) as the classical — and impractically
expensive — reduction of division to the basic operators.  None of
these functions meter cost; they are pure set/bag computations.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import DivisionError, SchemaError
from repro.relalg.predicates import Predicate
from repro.relalg.relation import Relation
from repro.relalg.schema import Schema
from repro.relalg.tuples import projector


def select(relation: Relation, predicate: Predicate, name: str = "") -> Relation:
    """σ: keep the rows satisfying ``predicate``."""
    test = predicate.compile(relation.schema)
    return relation.filter(test, name=name)


def project(
    relation: Relation,
    names: Sequence[str],
    distinct: bool = True,
    name: str = "",
) -> Relation:
    """π: keep only the attributes in ``names``.

    With ``distinct=True`` (the relational default) duplicates created
    by the projection are eliminated; with ``distinct=False`` the bag
    projection is returned, which is what feeds a division algorithm
    that claims to tolerate duplicates.
    """
    schema = relation.schema.project(names)
    extract = projector(relation.schema, names)
    rows = (extract(row) for row in relation)
    if distinct:
        rows = dict.fromkeys(rows)
    return Relation(schema, rows, name=name)


def union(left: Relation, right: Relation, name: str = "") -> Relation:
    """∪ with set semantics (duplicates eliminated)."""
    _require_same_schema(left, right, "union")
    return Relation(
        left.schema, dict.fromkeys(list(left) + list(right)), name=name
    )


def union_all(left: Relation, right: Relation, name: str = "") -> Relation:
    """Bag union (concatenation) -- used by the partitioned division's
    collection phase, which concatenates quotient clusters (§3.4)."""
    _require_same_schema(left, right, "union_all")
    return Relation(left.schema, list(left) + list(right), name=name)


def difference(left: Relation, right: Relation, name: str = "") -> Relation:
    """− with set semantics: distinct rows of ``left`` not in ``right``."""
    _require_same_schema(left, right, "difference")
    exclude = right.as_set()
    return Relation(
        left.schema,
        (row for row in dict.fromkeys(left) if row not in exclude),
        name=name,
    )


def cartesian_product(left: Relation, right: Relation, name: str = "") -> Relation:
    """×: every pairing of a left row with a right row."""
    schema = left.schema.concat(right.schema)
    rows = (l + r for l in left for r in right)
    return Relation(schema, rows, name=name)


def semi_join(left: Relation, right: Relation, name: str = "") -> Relation:
    """⋉: rows of ``left`` that join with at least one row of ``right``
    on the commonly named attributes (bag semantics on ``left``)."""
    common = [n for n in left.schema.names if n in right.schema.names]
    if not common:
        raise SchemaError("semi_join requires at least one common attribute")
    left_key = projector(left.schema, common)
    right_key = projector(right.schema, common)
    keys = {right_key(row) for row in right}
    return Relation(
        left.schema, (row for row in left if left_key(row) in keys), name=name
    )


def divide_set_semantics(
    dividend: Relation,
    divisor: Relation,
    name: str = "quotient",
) -> Relation:
    """R ÷ S computed directly from the definition (the primary oracle).

    A quotient tuple ``q`` qualifies iff for *every* divisor tuple
    ``s``, the combined tuple ``(q, s)`` appears in the dividend.
    Duplicates in either input are ignored, matching hash-division's
    semantics.  An empty divisor yields all (distinct) quotient-side
    projections of the dividend, the standard convention: the
    universal quantifier over an empty set is vacuously true.
    """
    quotient_names, divisor_names = division_attribute_split(dividend.schema, divisor.schema)
    quotient_of = projector(dividend.schema, quotient_names)
    divisor_of = projector(dividend.schema, divisor_names)
    required = {tuple(row) for row in divisor}
    seen: dict[tuple, set] = {}
    order: list[tuple] = []
    for row in dividend:
        q = quotient_of(row)
        if q not in seen:
            seen[q] = set()
            order.append(q)
        d = divisor_of(row)
        if d in required:
            seen[q].add(d)
    schema = dividend.schema.project(quotient_names)
    rows = (q for q in order if seen[q] == required)
    return Relation(schema, rows, name=name)


def divide_by_identity(
    dividend: Relation,
    divisor: Relation,
    name: str = "quotient",
) -> Relation:
    """R ÷ S via the algebraic identity π_q(R) − π_q((π_q(R) × S) − R).

    This is the Cartesian-product formulation the paper dismisses as
    "of merely theoretical validity" (Section 1).  It is implemented
    here — at its full quadratic cost — both as an independent oracle
    and to let the benchmarks demonstrate *why* it is impractical.

    The identity is evaluated under set semantics, so both inputs are
    deduplicated first; the subtraction ``× S) − R`` must compare
    attribute-for-attribute, so the product is re-ordered into the
    dividend's attribute order before subtracting.
    """
    quotient_names, divisor_names = division_attribute_split(dividend.schema, divisor.schema)
    candidates = project(dividend, quotient_names, distinct=True)
    divisor_distinct = Relation(
        dividend.schema.project(divisor_names), dict.fromkeys(divisor)
    )
    product = cartesian_product(candidates, divisor_distinct)
    aligned = project(product, dividend.schema.names, distinct=True)
    dividend_distinct = dividend.distinct()
    missing = difference(aligned, dividend_distinct)
    disqualified = project(missing, quotient_names, distinct=True)
    return difference(candidates, disqualified, name=name)


def division_attribute_split(
    dividend: Schema, divisor: Schema
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Validate a division and split the dividend schema's attributes.

    Returns ``(quotient_names, divisor_names)`` where ``divisor_names``
    are the divisor's attributes (which must all appear in the
    dividend) and ``quotient_names`` are the remaining dividend
    attributes, in dividend-schema order.

    Raises:
        DivisionError: if the divisor attributes are not a non-empty
            proper subset of the dividend attributes.
    """
    divisor_names = divisor.names
    dividend_names = dividend.names
    missing = [n for n in divisor_names if n not in dividend_names]
    if missing:
        raise DivisionError(
            f"divisor attributes {missing} do not appear in the dividend "
            f"schema {dividend_names}"
        )
    quotient_names = tuple(n for n in dividend_names if n not in set(divisor_names))
    if not quotient_names:
        raise DivisionError(
            "division requires at least one quotient attribute; the divisor "
            "covers every dividend attribute"
        )
    return quotient_names, divisor_names


def _require_same_schema(left: Relation, right: Relation, op: str) -> None:
    if left.schema != right.schema:
        raise SchemaError(
            f"{op} requires identical schemas, got {left.schema!r} and {right.schema!r}"
        )
