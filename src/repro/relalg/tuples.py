"""Positional tuple helpers shared by the executor operators.

Query-evaluation operators work on plain Python tuples plus a schema
that maps names to positions.  The helpers here pre-resolve names to
positions once, at operator-open time, so the per-tuple hot paths do no
dictionary lookups -- mirroring how the paper's system compiled
"functions on data records ... prior to execution" (Section 5.1).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Sequence

from repro.relalg.schema import Schema

Row = tuple
"""A relational tuple: a plain, immutable Python tuple of values."""

KeyFunction = Callable[[Row], tuple]
"""Extracts a (hashable, orderable) key from a row."""


def projector(schema: Schema, names: Sequence[str]) -> KeyFunction:
    """Compile a projection of ``schema`` onto ``names``.

    The returned callable maps a row to the tuple of values at the
    positions of ``names`` (in the order given).  Name resolution
    happens once, here.
    """
    positions = schema.positions_of(names)
    if positions == tuple(range(len(schema))):
        return _identity
    if len(positions) == 1:
        only = positions[0]
        return lambda row: (row[only],)
    # With two or more positions itemgetter already returns a tuple.
    return itemgetter(*positions)


def _identity(row: Row) -> Row:
    return row


def key_extractor(schema: Schema, names: Sequence[str]) -> KeyFunction:
    """Alias of :func:`projector`; reads better at call sites that use
    the result as a sort or hash key rather than as output."""
    return projector(schema, names)


def composite_key(primary: KeyFunction, secondary: KeyFunction) -> KeyFunction:
    """Compose two key extractors into one (major key, minor key).

    The naive division algorithm sorts the dividend on the quotient
    attributes as major and the divisor attributes as minor sort key
    (Section 2.1); this builds exactly that compound key.
    """
    return lambda row: primary(row) + secondary(row)


def concat_rows(left: Row, right: Row) -> Row:
    """Concatenate two rows (Cartesian product / join output shape)."""
    return left + right


def rows_equal_on(
    schema_a: Schema,
    schema_b: Schema,
    names: Sequence[str],
) -> Callable[[Row, Row], bool]:
    """Compile an equality test between rows of two schemas on the
    commonly named attributes ``names``."""
    positions_a = schema_a.positions_of(names)
    positions_b = schema_b.positions_of(names)

    def equal(row_a: Row, row_b: Row) -> bool:
        return all(row_a[i] == row_b[j] for i, j in zip(positions_a, positions_b))

    return equal
