"""Secondary indexes over stored relations.

The paper's file system offers B+-trees, and Section 2.2.1 lists
"index join" among the join methods available to the aggregation
strategies.  A :class:`SecondaryIndex` maps key-attribute values to the
record identifiers of a heap file; non-unique keys are handled by
appending the RID to the key (the tree itself stays unique).

Probing charges tree-descent comparisons to the context's counters
and reads no record: the index semi-join only asks whether a key
exists.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import StorageError
from repro.metering import CpuCounters
from repro.relalg.tuples import Row, projector
from repro.storage.btree import BPlusTree
from repro.storage.catalog import StoredRelation
from repro.storage.heapfile import RecordId

#: Sentinels sorting below/above every real RID in composite keys.
_LOW = RecordId(-1, -1)
_HIGH = RecordId(2**31, 2**31)


class SecondaryIndex:
    """A B+-tree index on some attributes of a stored relation.

    Args:
        stored: The indexed relation.
        key_names: Indexed attributes, in key order.
        cpu: Counter sink for tree comparisons.
        order: B+-tree node order.
    """

    def __init__(
        self,
        stored: StoredRelation,
        key_names: Sequence[str],
        cpu: CpuCounters | None = None,
        order: int = 64,
    ) -> None:
        if not key_names:
            raise StorageError("an index needs at least one key attribute")
        self.stored = stored
        self.key_names = tuple(key_names)
        self._key_of = projector(stored.schema, self.key_names)
        self._tree = BPlusTree(order=order, cpu=cpu)
        self._size = 0

    @classmethod
    def build(
        cls,
        stored: StoredRelation,
        key_names: Sequence[str],
        cpu: CpuCounters | None = None,
        order: int = 64,
    ) -> "SecondaryIndex":
        """Scan the relation once and index every record."""
        index = cls(stored, key_names, cpu=cpu, order=order)
        for rid, row in stored.scan_rows():
            index.insert(row, rid)
        return index

    def __len__(self) -> int:
        return self._size

    # -- maintenance ------------------------------------------------------

    def insert(self, row: Row, rid: RecordId) -> None:
        """Index one record (duplicate key values are fine)."""
        self._tree.insert(self._key_of(row) + (rid,), rid)
        self._size += 1

    def delete(self, row: Row, rid: RecordId) -> None:
        """Remove one record's entry."""
        self._tree.delete(self._key_of(row) + (rid,))
        self._size -= 1

    # -- probing -------------------------------------------------------------

    def probe(self, key: tuple) -> list[RecordId]:
        """All RIDs whose key attributes equal ``key``."""
        key = tuple(key)
        return [
            rid for _composite, rid in self._tree.range(key + (_LOW,), key + (_HIGH,))
        ]

    def contains(self, key: tuple) -> bool:
        """True when at least one record has this key."""
        key = tuple(key)
        for _entry in self._tree.range(key + (_LOW,), key + (_HIGH,)):
            return True
        return False

    def __repr__(self) -> str:
        return (
            f"<SecondaryIndex on {self.stored.name}({', '.join(self.key_names)}) "
            f"with {self._size} entries>"
        )
