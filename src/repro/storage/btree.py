"""B+-tree indexes.

The paper's file system lists B+-trees among its main services
(Section 5.1).  The division experiments themselves never probe an
index -- every algorithm scans its inputs sequentially -- but the
substrate would be incomplete without one, and the index-join variant
mentioned for the aggregation strategies (Section 2.2.1) needs it.

This is a classic order-``n`` B+-tree: interior nodes hold separator
keys and children; leaves hold (key, value) pairs and are chained for
range scans.  Keys are arbitrary orderable tuples, values are opaque
(typically :class:`~repro.storage.heapfile.RecordId`).  Duplicate keys
are rejected -- secondary indexes append the RID to the key to make it
unique.

Every key comparison can be metered into a
:class:`~repro.metering.CpuCounters` so index costs are visible in the
same units as everything else.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Any, Iterator

from repro.errors import BTreeError
from repro.metering import CpuCounters

DEFAULT_ORDER = 64
"""Default maximum children per interior node."""


@dataclass
class BTreeStats:
    """Structural-maintenance and access counters for one tree.

    Surfaced through the ``repro_btree_*`` metrics families (see
    :func:`repro.obs.metrics.absorb_btree`), so index maintenance cost
    is visible in the same place as buffer and I/O activity.

    Attributes:
        searches: Point lookups performed.
        inserts: Successful insertions.
        deletes: Successful deletions.
        leaf_splits: Leaf nodes split during insertion.
        interior_splits: Interior nodes split during insertion.
        leaf_scans: Range/items scans initiated.
        leaves_visited: Leaf nodes walked by those scans.
    """

    searches: int = 0
    inserts: int = 0
    deletes: int = 0
    leaf_splits: int = 0
    interior_splits: int = 0
    leaf_scans: int = 0
    leaves_visited: int = 0


class _Node:
    __slots__ = ("keys",)

    def __init__(self) -> None:
        self.keys: list[Any] = []


class _Leaf(_Node):
    __slots__ = ("values", "next")

    def __init__(self) -> None:
        super().__init__()
        self.values: list[Any] = []
        self.next: "_Leaf | None" = None


class _Interior(_Node):
    __slots__ = ("children",)

    def __init__(self) -> None:
        super().__init__()
        self.children: list[_Node] = []


class BPlusTree:
    """An in-memory B+-tree with chained leaves.

    Args:
        order: Maximum number of children of an interior node (also the
            maximum number of entries in a leaf).  Must be at least 3.
        cpu: Optional counters; every key comparison performed while
            descending or splitting is charged as one ``Comp``.
    """

    def __init__(self, order: int = DEFAULT_ORDER, cpu: CpuCounters | None = None) -> None:
        if order < 3:
            raise BTreeError(f"order must be >= 3, got {order}")
        self.order = order
        self.cpu = cpu
        #: Structural/access counters (:class:`BTreeStats`); absorbed
        #: into ``repro_btree_*`` metrics by
        #: :func:`repro.obs.metrics.absorb_btree`.
        self.stats = BTreeStats()
        self._root: _Node = _Leaf()
        self._size = 0
        self._height = 1

    # -- observers --------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        """Levels in the tree (1 = a single leaf)."""
        return self._height

    def __contains__(self, key: Any) -> bool:
        return self.search(key) is not None

    # -- search ------------------------------------------------------------

    def _charge(self, comparisons: int) -> None:
        if self.cpu is not None:
            self.cpu.comparisons += comparisons

    def _bisect_cost(self, length: int) -> int:
        return max(1, length.bit_length())

    def _find_leaf(self, key: Any) -> _Leaf:
        node = self._root
        while isinstance(node, _Interior):
            self._charge(self._bisect_cost(len(node.keys)))
            index = bisect.bisect_right(node.keys, key)
            node = node.children[index]
        return node  # type: ignore[return-value]

    def search(self, key: Any) -> Any | None:
        """Return the value stored under ``key``, or ``None``."""
        self.stats.searches += 1
        leaf = self._find_leaf(key)
        self._charge(self._bisect_cost(len(leaf.keys)))
        index = bisect.bisect_left(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            return leaf.values[index]
        return None

    def range(self, low: Any = None, high: Any = None) -> Iterator[tuple[Any, Any]]:
        """Iterate ``(key, value)`` for ``low <= key <= high`` in order.

        ``None`` bounds are open.
        """
        self.stats.leaf_scans += 1
        if low is None:
            leaf: _Leaf | None = self._leftmost_leaf()
            index = 0
        else:
            leaf = self._find_leaf(low)
            self._charge(self._bisect_cost(len(leaf.keys)))
            index = bisect.bisect_left(leaf.keys, low)
        while leaf is not None:
            self.stats.leaves_visited += 1
            while index < len(leaf.keys):
                key = leaf.keys[index]
                if high is not None and key > high:
                    return
                yield key, leaf.values[index]
                index += 1
            leaf = leaf.next
            index = 0

    def items(self) -> Iterator[tuple[Any, Any]]:
        """All entries in key order."""
        return self.range()

    def _leftmost_leaf(self) -> _Leaf:
        node = self._root
        while isinstance(node, _Interior):
            node = node.children[0]
        return node  # type: ignore[return-value]

    # -- insertion -------------------------------------------------------------

    def insert(self, key: Any, value: Any) -> None:
        """Insert a unique key.

        Raises:
            BTreeError: when ``key`` is already present.
        """
        split = self._insert(self._root, key, value)
        if split is not None:
            separator, right = split
            new_root = _Interior()
            new_root.keys = [separator]
            new_root.children = [self._root, right]
            self._root = new_root
            self._height += 1
        self._size += 1
        self.stats.inserts += 1

    def _insert(self, node: _Node, key: Any, value: Any) -> tuple[Any, _Node] | None:
        if isinstance(node, _Leaf):
            self._charge(self._bisect_cost(len(node.keys)))
            index = bisect.bisect_left(node.keys, key)
            if index < len(node.keys) and node.keys[index] == key:
                raise BTreeError(f"duplicate key {key!r}")
            node.keys.insert(index, key)
            node.values.insert(index, value)
            if len(node.keys) <= self.order:
                return None
            return self._split_leaf(node)
        assert isinstance(node, _Interior)
        self._charge(self._bisect_cost(len(node.keys)))
        index = bisect.bisect_right(node.keys, key)
        split = self._insert(node.children[index], key, value)
        if split is None:
            return None
        separator, right = split
        node.keys.insert(index, separator)
        node.children.insert(index + 1, right)
        if len(node.children) <= self.order:
            return None
        return self._split_interior(node)

    def _split_leaf(self, leaf: _Leaf) -> tuple[Any, _Leaf]:
        self.stats.leaf_splits += 1
        middle = len(leaf.keys) // 2
        right = _Leaf()
        right.keys = leaf.keys[middle:]
        right.values = leaf.values[middle:]
        leaf.keys = leaf.keys[:middle]
        leaf.values = leaf.values[:middle]
        right.next = leaf.next
        leaf.next = right
        return right.keys[0], right

    def _split_interior(self, node: _Interior) -> tuple[Any, _Interior]:
        self.stats.interior_splits += 1
        middle = len(node.keys) // 2
        separator = node.keys[middle]
        right = _Interior()
        right.keys = node.keys[middle + 1 :]
        right.children = node.children[middle + 1 :]
        node.keys = node.keys[:middle]
        node.children = node.children[: middle + 1]
        return separator, right

    # -- deletion ----------------------------------------------------------------

    def delete(self, key: Any) -> Any:
        """Remove ``key`` and return its value.

        Raises:
            BTreeError: when ``key`` is absent.
        """
        value = self._delete(self._root, key)
        if isinstance(self._root, _Interior) and len(self._root.children) == 1:
            self._root = self._root.children[0]
            self._height -= 1
        self._size -= 1
        self.stats.deletes += 1
        return value

    def _min_entries(self) -> int:
        return self.order // 2

    def _delete(self, node: _Node, key: Any) -> Any:
        if isinstance(node, _Leaf):
            self._charge(self._bisect_cost(len(node.keys)))
            index = bisect.bisect_left(node.keys, key)
            if index >= len(node.keys) or node.keys[index] != key:
                raise BTreeError(f"key {key!r} not found")
            node.keys.pop(index)
            return node.values.pop(index)
        assert isinstance(node, _Interior)
        self._charge(self._bisect_cost(len(node.keys)))
        index = bisect.bisect_right(node.keys, key)
        value = self._delete(node.children[index], key)
        self._rebalance_child(node, index)
        return value

    def _entry_count(self, node: _Node) -> int:
        if isinstance(node, _Leaf):
            return len(node.keys)
        return len(node.children)  # type: ignore[attr-defined]

    def _rebalance_child(self, parent: _Interior, index: int) -> None:
        child = parent.children[index]
        if self._entry_count(child) >= self._min_entries():
            return
        left = parent.children[index - 1] if index > 0 else None
        right = parent.children[index + 1] if index + 1 < len(parent.children) else None
        if left is not None and self._entry_count(left) > self._min_entries():
            self._borrow_from_left(parent, index)
        elif right is not None and self._entry_count(right) > self._min_entries():
            self._borrow_from_right(parent, index)
        elif left is not None:
            self._merge_children(parent, index - 1)
        elif right is not None:
            self._merge_children(parent, index)

    def _borrow_from_left(self, parent: _Interior, index: int) -> None:
        child = parent.children[index]
        left = parent.children[index - 1]
        if isinstance(child, _Leaf):
            assert isinstance(left, _Leaf)
            child.keys.insert(0, left.keys.pop())
            child.values.insert(0, left.values.pop())
            parent.keys[index - 1] = child.keys[0]
        else:
            assert isinstance(left, _Interior) and isinstance(child, _Interior)
            child.keys.insert(0, parent.keys[index - 1])
            parent.keys[index - 1] = left.keys.pop()
            child.children.insert(0, left.children.pop())

    def _borrow_from_right(self, parent: _Interior, index: int) -> None:
        child = parent.children[index]
        right = parent.children[index + 1]
        if isinstance(child, _Leaf):
            assert isinstance(right, _Leaf)
            child.keys.append(right.keys.pop(0))
            child.values.append(right.values.pop(0))
            parent.keys[index] = right.keys[0]
        else:
            assert isinstance(right, _Interior) and isinstance(child, _Interior)
            child.keys.append(parent.keys[index])
            parent.keys[index] = right.keys.pop(0)
            child.children.append(right.children.pop(0))

    def _merge_children(self, parent: _Interior, index: int) -> None:
        """Merge child ``index+1`` into child ``index``."""
        left = parent.children[index]
        right = parent.children[index + 1]
        if isinstance(left, _Leaf):
            assert isinstance(right, _Leaf)
            left.keys.extend(right.keys)
            left.values.extend(right.values)
            left.next = right.next
        else:
            assert isinstance(left, _Interior) and isinstance(right, _Interior)
            left.keys.append(parent.keys[index])
            left.keys.extend(right.keys)
            left.children.extend(right.children)
        parent.keys.pop(index)
        parent.children.pop(index + 1)
