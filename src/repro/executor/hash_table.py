"""Bucket-chained in-memory hash tables with cost and memory metering.

"In our implementation of hash-based algorithms, we use bucket chaining
as conflict resolution in hash tables.  The hash algorithms use the
file system's memory manager to allocate space for hash tables, bit
maps, and chain elements." (Section 5.1.)

:class:`ChainedHashTable` is that structure: an array of buckets, each
a chain of (key, payload) entries.  Every operation is metered --
computing a hash value charges one ``Hash``, every chain entry
inspected during a probe charges one ``Comp`` -- and every entry is
charged against the :class:`~repro.storage.memory.MemoryPool`, so a
budget-limited table overflows with
:class:`~repro.errors.HashTableOverflowError` exactly when the paper's
would spill.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterator

from repro.errors import HashTableOverflowError, MemoryPoolError
from repro.metering import CpuCounters
from repro.storage.memory import (
    BUCKET_HEADER_BYTES,
    CHAIN_ELEMENT_BYTES,
    MemoryPool,
)

#: Default average chain length the table is sized for -- the paper's
#: analytical comparison assumes an average bucket size (hbs) of 2.
DEFAULT_TARGET_CHAIN_LENGTH = 2

_table_ids = itertools.count()


class ChainedHashTable:
    """A metered, memory-budgeted, bucket-chained hash table.

    Keys are hashable tuples; payloads are arbitrary (often mutable,
    e.g. a bit map or a counter list, so probes can update in place).

    Args:
        cpu: Counter sink for ``Hash``/``Comp`` charges.
        memory: Pool the table's space is charged against.
        bucket_count: Number of buckets; see :meth:`buckets_for`.
        entry_bytes: Payload bytes charged per entry, on top of the
            chain-element bookkeeping bytes.
        tag: Allocation tag (e.g. ``"divisor-table"``); also used to
            free the whole table at once.
        tracer: Optional :class:`repro.obs.span.Tracer`; when enabled,
            every budget overflow is counted into
            ``repro_hash_table_overflows_total{table=<tag>}`` so spill
            behaviour is visible alongside buffer and I/O metrics.
    """

    def __init__(
        self,
        cpu: CpuCounters,
        memory: MemoryPool,
        bucket_count: int,
        entry_bytes: int,
        tag: str = "hash-table",
        tracer=None,
    ) -> None:
        if bucket_count <= 0:
            raise ValueError("bucket_count must be positive")
        self.cpu = cpu
        self.memory = memory
        self.bucket_count = bucket_count
        self.entry_bytes = entry_bytes
        self.base_tag = tag
        self.tag = f"{tag}#{next(_table_ids)}"
        self.tracer = tracer
        #: Times this table hit the memory budget (any operation).
        self.overflows = 0
        self._buckets: list[list[list[Any]]] = [[] for _ in range(bucket_count)]
        self._size = 0
        self._freed = False
        try:
            memory.allocate(bucket_count * BUCKET_HEADER_BYTES, tag=self.tag)
        except MemoryPoolError as exc:
            raise self._overflow(exc, site="bucket-array") from exc

    def _overflow(
        self, exc: MemoryPoolError, site: str
    ) -> HashTableOverflowError:
        """Count a budget overflow and build the error to raise."""
        self.overflows += 1
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.count(
                "repro_hash_table_overflows_total",
                table=self.base_tag,
                site=site,
            )
        return HashTableOverflowError(str(exc))

    @staticmethod
    def buckets_for(
        expected_entries: int,
        target_chain_length: int = DEFAULT_TARGET_CHAIN_LENGTH,
    ) -> int:
        """Bucket count giving the paper's average chain length.

        Sized so ``expected_entries / buckets ~= target_chain_length``
        (hbs = 2 in the analytical model), rounded up to a power of two.
        """
        if expected_entries <= 0:
            return 16
        needed = max(1, expected_entries // max(1, target_chain_length))
        return 1 << (needed - 1).bit_length()

    # -- observers -------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def average_chain_length(self) -> float:
        """Observed mean entries per non-empty bucket."""
        occupied = sum(1 for b in self._buckets if b)
        return 0.0 if occupied == 0 else self._size / occupied

    # -- operations ----------------------------------------------------------

    def insert(self, key: tuple, payload: Any) -> None:
        """Append an entry without checking for duplicates.

        Charges one ``Hash`` plus memory for the chain element and
        payload.

        Raises:
            HashTableOverflowError: when the memory pool is exhausted.
        """
        if self._freed:
            self._check_live()
        self.cpu.hashes += 1
        bucket = self._buckets[hash(key) % self.bucket_count]
        try:
            self.memory.allocate(CHAIN_ELEMENT_BYTES + self.entry_bytes, tag=self.tag)
        except MemoryPoolError as exc:
            raise self._overflow(exc, site="insert") from exc
        bucket.append([key, payload])
        self._size += 1

    def find(self, key: tuple) -> Any | None:
        """Probe for ``key``; returns the payload or ``None``.

        Charges one ``Hash`` plus one ``Comp`` per chain entry
        inspected (entries are inspected until a match is found or the
        chain ends).
        """
        if self._freed:
            self._check_live()
        cpu = self.cpu
        cpu.hashes += 1
        for entry in self._buckets[hash(key) % self.bucket_count]:
            cpu.comparisons += 1
            if entry[0] == key:
                return entry[1]
        return None

    def find_or_insert(self, key: tuple, make_payload) -> tuple[Any, bool]:
        """Probe for ``key``; insert ``make_payload()`` when absent.

        Returns ``(payload, inserted)``.  This is the inner loop of
        hash aggregation and of hash-division's quotient table: one
        hash computation serves both the probe and the insert.
        """
        if self._freed:
            self._check_live()
        cpu = self.cpu
        cpu.hashes += 1
        bucket = self._buckets[hash(key) % self.bucket_count]
        for entry in bucket:
            cpu.comparisons += 1
            if entry[0] == key:
                return entry[1], False
        try:
            self.memory.allocate(CHAIN_ELEMENT_BYTES + self.entry_bytes, tag=self.tag)
        except MemoryPoolError as exc:
            raise self._overflow(exc, site="find_or_insert") from exc
        payload = make_payload()
        bucket.append([key, payload])
        self._size += 1
        return payload, True

    def items(self) -> Iterator[tuple[tuple, Any]]:
        """Scan all entries bucket by bucket (Figure 1, step 3)."""
        self._check_live()
        for bucket in self._buckets:
            for key, payload in bucket:
                yield key, payload

    def free(self) -> None:
        """Release the table's memory ("free divisor table", Figure 1)."""
        if self._freed:
            return
        self.memory.free_all(tag=self.tag)
        self._buckets = []
        self._size = 0
        self._freed = True

    def _check_live(self) -> None:
        if self._freed:
            raise HashTableOverflowError(f"hash table {self.tag} already freed")

    def __repr__(self) -> str:
        return (
            f"<ChainedHashTable {self.tag} {self._size} entries in "
            f"{self.bucket_count} buckets>"
        )
