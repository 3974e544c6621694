"""Schemas, attribute types, and the fixed-size record codec.

The paper's experiments use fixed-size records: 8 bytes for divisor and
quotient tuples, 16 bytes for dividend tuples (Section 5.1).  This
module models schemas as ordered sequences of typed attributes and
provides :class:`RecordCodec`, which packs a Python tuple into exactly
the byte layout a schema prescribes, so the storage layer stores the
same record sizes the paper's file system did.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Iterable, Iterator, Sequence

from repro.errors import SchemaError


class DataType(enum.Enum):
    """Attribute types supported by the record codec.

    ``INT64`` is an 8-byte signed integer, ``FLOAT64`` an 8-byte IEEE
    double, and ``STRING`` a fixed-width byte string whose width is
    carried by the :class:`Attribute` (``size`` field).
    """

    INT64 = "int64"
    FLOAT64 = "float64"
    STRING = "string"


@dataclass(frozen=True)
class Attribute:
    """A named, typed column.

    Args:
        name: Column name, unique within a schema.
        dtype: Value type.
        size: Byte width; required only for ``STRING`` attributes.
              ``INT64`` and ``FLOAT64`` are always 8 bytes.
    """

    name: str
    dtype: DataType = DataType.INT64
    size: int = 8

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("attribute name must be non-empty")
        if self.dtype in (DataType.INT64, DataType.FLOAT64) and self.size != 8:
            raise SchemaError(
                f"attribute {self.name!r}: {self.dtype.value} is always 8 bytes, "
                f"got size={self.size}"
            )
        if self.dtype is DataType.STRING and self.size <= 0:
            raise SchemaError(
                f"attribute {self.name!r}: string attributes need a positive size"
            )

    @property
    def struct_format(self) -> str:
        """The ``struct`` format fragment encoding this attribute."""
        if self.dtype is DataType.INT64:
            return "q"
        if self.dtype is DataType.FLOAT64:
            return "d"
        return f"{self.size}s"


class Schema:
    """An ordered, immutable sequence of uniquely named attributes.

    A schema maps attribute names to positions and exposes convenience
    constructors for the projections the division operator needs
    (quotient attributes, divisor attributes).
    """

    __slots__ = ("_attributes", "_index")

    def __init__(self, attributes: Iterable[Attribute]) -> None:
        attrs = tuple(attributes)
        if not attrs:
            raise SchemaError("a schema needs at least one attribute")
        index: dict[str, int] = {}
        for position, attribute in enumerate(attrs):
            if attribute.name in index:
                raise SchemaError(f"duplicate attribute name {attribute.name!r}")
            index[attribute.name] = position
        self._attributes = attrs
        self._index = index

    @classmethod
    def of_ints(cls, *names: str) -> "Schema":
        """Build a schema of 8-byte integer attributes -- the record
        shape used throughout the paper's experiments."""
        return cls(Attribute(name) for name in names)

    # -- basic container protocol ------------------------------------

    def __len__(self) -> int:
        return len(self._attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self._attributes)

    def __getitem__(self, item: int | str) -> Attribute:
        if isinstance(item, str):
            return self._attributes[self.position_of(item)]
        return self._attributes[item]

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._attributes == other._attributes

    def __hash__(self) -> int:
        return hash(self._attributes)

    def __repr__(self) -> str:
        cols = ", ".join(f"{a.name}:{a.dtype.value}" for a in self._attributes)
        return f"Schema({cols})"

    # -- name/position mapping ---------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        """Attribute names in schema order."""
        return tuple(a.name for a in self._attributes)

    def position_of(self, name: str) -> int:
        """Return the position of ``name``, raising
        :class:`~repro.errors.SchemaError` if absent."""
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(
                f"attribute {name!r} not in schema {self.names}"
            ) from None

    def positions_of(self, names: Sequence[str]) -> tuple[int, ...]:
        """Return positions for several names, preserving their order."""
        return tuple(self.position_of(name) for name in names)

    # -- derived schemas ----------------------------------------------

    def project(self, names: Sequence[str]) -> "Schema":
        """Schema of a projection onto ``names`` (in the given order)."""
        return Schema(self[name] for name in names)

    def concat(self, other: "Schema") -> "Schema":
        """Schema of the concatenation of two tuples (Cartesian product)."""
        return Schema(tuple(self._attributes) + tuple(other._attributes))

    # -- physical layout ----------------------------------------------

    @property
    def record_size(self) -> int:
        """Fixed record size in bytes for tuples of this schema."""
        return sum(a.size for a in self._attributes)

    def codec(self) -> "RecordCodec":
        """Return a codec that (de)serializes tuples of this schema."""
        return RecordCodec(self)


class RecordCodec:
    """Fixed-size binary (de)serializer for tuples of one schema.

    Records are packed with ``struct`` using little-endian layout and
    no padding, so a divisor schema of one ``INT64`` yields exactly the
    paper's 8-byte records and a two-integer dividend schema yields
    16-byte records.  A string whose UTF-8 encoding is longer than its
    attribute's width is refused, not cut.
    """

    __slots__ = ("schema", "_struct", "_format", "_strings")

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self._format = "".join(a.struct_format for a in schema)
        self._struct = struct.Struct("<" + self._format)
        #: ``(position, attribute)`` of every STRING attribute.
        self._strings = tuple(
            (i, a) for i, a in enumerate(schema) if a.dtype is DataType.STRING
        )

    @property
    def record_size(self) -> int:
        """Bytes per encoded record."""
        return self._struct.size

    def encode(self, row: tuple) -> bytes:
        """Pack one tuple into its fixed-size binary record."""
        if len(row) != len(self.schema):
            raise SchemaError(
                f"tuple arity {len(row)} does not match schema arity {len(self.schema)}"
            )
        if not self._strings:
            return self._struct.pack(*row)
        values = list(row)
        for position, attribute in self._strings:
            value = values[position]
            if isinstance(value, str):
                value = value.encode("utf-8")
            if isinstance(value, (bytes, bytearray)) and len(value) > attribute.size:
                raise _too_wide(attribute, len(value))
            values[position] = value
        return self._struct.pack(*values)

    def pack_rows(self, rows: Sequence[tuple]) -> bytes:
        """Pack ``rows`` back to back with a cached ``struct.Struct``
        call per :data:`_PACK_BLOCK` rows.

        The bytes are those of :meth:`encode` of each row, joined.  When
        :meth:`encode` would refuse any row, this raises too, but not
        necessarily the same error: encode the rows one by one to learn
        which row it is and its error.
        """
        arity = len(self.schema)
        if set(map(len, rows)) - {arity}:
            raise SchemaError(f"a tuple's arity does not match schema arity {arity}")
        values = list(chain.from_iterable(rows))
        for position, attribute in self._strings:
            column = [
                value.encode("utf-8") if isinstance(value, str) else value
                for value in values[position::arity]
            ]
            longest = max(map(len, column), default=0)
            if longest > attribute.size:
                raise _too_wide(attribute, longest)
            values[position::arity] = column
        full, rest = divmod(len(rows), _PACK_BLOCK)
        step = _PACK_BLOCK * arity
        block = _repeated_struct(self._format, _PACK_BLOCK).pack
        parts = [block(*values[start : start + step]) for start in range(0, full * step, step)]
        parts.append(_repeated_struct(self._format, rest).pack(*values[full * step :]))
        return b"".join(parts)

    def decode(self, record: bytes | memoryview) -> tuple:
        """Unpack one binary record back into a Python tuple.

        String attributes are returned stripped of NUL padding and
        decoded as UTF-8.
        """
        values = self._struct.unpack(record)
        if not self._strings:
            return values
        return self._strip_strings(values)

    def decode_page(self, page) -> list[tuple]:
        """Decode every live record of a slotted page, in slot order.

        ``page`` is a :class:`~repro.storage.page.SlottedPage`; the
        tuples equal :meth:`decode` of each record.
        """
        rows = page.unpack_records(self._struct)
        if not self._strings:
            return rows
        return [self._strip_strings(values) for values in rows]

    def _strip_strings(self, values: tuple) -> tuple:
        out = list(values)
        for position, _attribute in self._strings:
            out[position] = out[position].rstrip(b"\x00").decode("utf-8")
        return tuple(out)


#: Rows per ``struct`` call of :meth:`RecordCodec.pack_rows`.  A whole
#: sort run in one call would compile, and cache, a format of thousands
#: of records (420 KB for 6,400 two-integer rows) per distinct length.
_PACK_BLOCK = 256


@lru_cache(maxsize=128)
def _repeated_struct(record_format: str, count: int) -> struct.Struct:
    """A ``struct.Struct`` packing ``count`` records of ``record_format``
    (a little-endian format without its byte-order prefix) back to back."""
    return struct.Struct("<" + record_format * count)


def _too_wide(attribute: Attribute, length: int) -> SchemaError:
    return SchemaError(
        f"attribute {attribute.name!r} is {attribute.size} bytes wide; "
        f"its value encodes to {length} bytes"
    )
