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
    happens once, here, and the key is built in C: the row itself for
    the whole row, a slice for contiguous positions (one position
    included), and ``itemgetter`` otherwise.
    """
    positions = schema.positions_of(names)
    if positions == tuple(range(len(schema))):
        return identity
    start = positions[0] if positions else 0
    if positions == tuple(range(start, start + len(positions))):
        return itemgetter(slice(start, start + len(positions)))
    # With two or more positions itemgetter already returns a tuple.
    return itemgetter(*positions)


def identity(row: Row) -> Row:
    """The projection of a row onto its whole schema, in order."""
    return row
