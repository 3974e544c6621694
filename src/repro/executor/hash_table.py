"""Bucket-chained in-memory hash tables with cost and memory metering.

"In our implementation of hash-based algorithms, we use bucket chaining
as conflict resolution in hash tables.  The hash algorithms use the
file system's memory manager to allocate space for hash tables, bit
maps, and chain elements." (Section 5.1.)

:class:`ChainedHashTable` is that structure: an array of buckets, each
a chain of keys, plus a dict index from each key to its payload and to
its 1-based position in its chain.  Every probe is metered in Table 1
units -- computing a hash value charges one ``Hash``, every chain entry
a probe would inspect charges one ``Comp`` -- and every entry is
charged against the :class:`~repro.storage.memory.MemoryPool`, so a
budget-limited table overflows with
:class:`~repro.errors.HashTableOverflowError` exactly when the paper's
would spill.

The table only appends and frees as a whole, so a key's chain position
never changes and every charge has a closed form:

* a probe costs one ``Hash``;
* a hit costs ``Comp`` equal to the key's chain position (the chain is
  walked up to and including it);
* a miss costs ``Comp`` equal to the length of the key's chain.

The index finds the answer, and the charge is arithmetic over the
positions, so the batch probes :meth:`ChainedHashTable.find_many` and
:meth:`~ChainedHashTable.find_or_insert_many` resolve a whole list of
keys with a C-level ``map`` instead of one metered call per key.
:meth:`~ChainedHashTable.find_or_insert_many` inserts a batch's new
keys first, in first-occurrence order, in one loop: the memory pool
books all their chain elements (and hash-division's bit maps, which
interleave with them) in one
:meth:`~repro.storage.memory.MemoryPool.allocate_run`, so no new key
goes through the per-key :meth:`~ChainedHashTable.find_or_insert`.
Hits do not allocate, so every allocation -- and so every overflow --
falls on the same key as in a key-at-a-time loop, each new key meets
the chain length that loop would have met, and when an insert fails
exactly the probes up to and including the failing key stay charged.
The buckets still fix the order of :meth:`~ChainedHashTable.items`
(Figure 1, step 3).
"""

from __future__ import annotations

import itertools
import operator
from typing import Any, Callable, Iterable, Iterator, Sequence

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
    e.g. a bit map or a counter list, so probes can update in place)
    but never ``None``, which the probes return for a missing key.

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
        self._buckets: list[list[tuple]] = [[] for _ in range(bucket_count)]
        #: The index: key -> payload, and key -> 1-based chain position.
        self._payloads: dict[tuple, Any] = {}
        self._positions: dict[tuple, int] = {}
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
        return len(self._payloads)

    def __contains__(self, key: tuple) -> bool:
        """Whether ``key`` is in the table; charges nothing.  For a
        consumer's bookkeeping after a batch failed, not for probing."""
        return key in self._payloads

    @property
    def average_chain_length(self) -> float:
        """Observed mean entries per non-empty bucket."""
        occupied = sum(1 for b in self._buckets if b)
        return 0.0 if occupied == 0 else len(self) / occupied

    # -- per-key probes ----------------------------------------------------

    def find(self, key: tuple) -> Any | None:
        """Probe for ``key``; returns the payload or ``None``.

        Charges one ``Hash`` plus the ``Comp`` of the chain entries a
        walk inspects: up to the key's position, or the whole chain.
        """
        if self._freed:
            self._check_live()
        cpu = self.cpu
        cpu.hashes += 1
        position = self._positions.get(key)
        if position is None:
            cpu.comparisons += self._chain_length(key)
            return None
        cpu.comparisons += position
        return self._payloads[key]

    def find_or_insert(self, key: tuple, make_payload: Callable[[], Any]) -> tuple[Any, bool]:
        """Probe for ``key``; insert ``make_payload()`` when absent.

        Returns ``(payload, inserted)``.  One hash computation serves
        both the probe and the insert, which charges the chain element
        and the payload bytes to the memory pool.

        No operator calls it: they go through
        :meth:`find_or_insert_many`.  It stays as the key-at-a-time
        reference that the batch kernels' property test
        (``tests/executor/test_hash_table.py``) holds them to, and
        ``perfbench`` times it under its own name.

        Raises:
            HashTableOverflowError: when the memory pool is exhausted.
        """
        if self._freed:
            self._check_live()
        cpu = self.cpu
        cpu.hashes += 1
        position = self._positions.get(key)
        if position is not None:
            cpu.comparisons += position
            return self._payloads[key], False
        bucket = self._buckets[hash(key) % self.bucket_count]
        cpu.comparisons += len(bucket)
        try:
            self.memory.allocate(CHAIN_ELEMENT_BYTES + self.entry_bytes, tag=self.tag)
        except MemoryPoolError as exc:
            raise self._overflow(exc, site="find_or_insert") from exc
        payload = make_payload()
        bucket.append(key)
        self._payloads[key] = payload
        self._positions[key] = len(bucket)
        return payload, True

    # -- batch probes ------------------------------------------------------

    def find_many(self, keys: Sequence[tuple]) -> list[Any | None]:
        """:meth:`find` for each of ``keys``: the payloads, ``None`` for
        a missing key, with the same charges in total."""
        if len(keys) == 1:
            # One key costs what find() costs, since early-output
            # hash-division consumes row by row: a hit is charged here,
            # and a miss (or a freed table, which holds no key) goes to
            # find().
            key = keys[0]
            position = self._positions.get(key)
            if position is None:
                return [self.find(key)]
            cpu = self.cpu
            cpu.hashes += 1
            cpu.comparisons += position
            return [self._payloads[key]]
        if self._freed:
            self._check_live()
        found = list(map(self._payloads.get, keys))
        self.cpu.hashes += len(keys)
        self.cpu.comparisons += self._probe_comparisons(keys, found)
        return found

    def refund_probes(self, keys: Sequence[tuple]) -> None:
        """Take back what :meth:`find_many` charged for ``keys``.

        For a consumer whose batch failed before it reached these
        keys: a key-at-a-time loop would never have probed them.
        """
        found = list(map(self._payloads.get, keys))
        self.cpu.hashes -= len(keys)
        self.cpu.comparisons -= self._probe_comparisons(keys, found)

    def find_or_insert_many(
        self,
        keys: Sequence[tuple],
        make_payload: Callable[[], Any],
        payload_allocation: tuple[int, str] | None = None,
    ) -> tuple[list[Any], list[tuple]]:
        """:meth:`find_or_insert` for each of ``keys``, in order.

        Returns the payloads, one per key, and the keys this call
        inserted in first-occurrence order.  The new keys are inserted
        first, in one loop, and every other probe is then a hit charged
        by its position -- the same allocations and charges as a
        key-at-a-time loop.  ``payload_allocation`` is the
        ``(size, tag)`` the pool books for each new key's payload right
        after its chain element (hash-division's bit maps);
        ``make_payload`` itself must not allocate or fail.  If an
        allocation fails, the probes before the failing key are charged
        as that loop would have charged them, and the error propagates.
        """
        if len(keys) == 1:
            # One hit costs what find_or_insert() costs, since
            # early-output hash-division consumes row by row; a miss
            # takes the insert path below.
            key = keys[0]
            position = self._positions.get(key)
            if position is not None:
                cpu = self.cpu
                cpu.hashes += 1
                cpu.comparisons += position
                return [self._payloads[key]], []
        if self._freed:
            self._check_live()
        payloads = self._payloads
        # An empty table holds none of the keys; otherwise look them up
        # first, since most batches of a warm table only hit.
        found = list(map(payloads.get, keys)) if payloads else None
        fresh: list[tuple] = []
        if found is None or None in found:
            fresh = list(itertools.filterfalse(payloads.__contains__, dict.fromkeys(keys)))
            try:
                self._insert(fresh, make_payload, payload_allocation)
            except HashTableOverflowError:
                # ``key`` failed: charge the hits a loop met before it.
                key = next(itertools.filterfalse(payloads.__contains__, fresh))
                self._charge_hits(keys[: keys.index(key)], fresh[: fresh.index(key)])
                raise
            found = list(map(payloads.__getitem__, keys))
        self._charge_hits(keys, fresh)
        return found, fresh

    def _insert(
        self,
        fresh: Sequence[tuple],
        make_payload: Callable[[], Any],
        payload_allocation: tuple[int, str] | None,
    ) -> None:
        """Insert ``fresh``, keys not in the table, in order.

        The pool books every key's chain element (and payload) in one
        :meth:`~repro.storage.memory.MemoryPool.allocate_run`; each key
        is charged one ``Hash`` and ``Comp`` equal to the length its
        chain has when the key is appended.  When an allocation fails,
        the keys before the failing one are inserted, the failing key
        is charged its probe, and the failure counts as an overflow of
        this table, as in :meth:`find_or_insert`, with the site that
        failed: the chain element or the payload (a bit map).
        """
        pattern = [(CHAIN_ELEMENT_BYTES + self.entry_bytes, self.tag)]
        if payload_allocation is not None:
            pattern.append(payload_allocation)
        failure = None
        try:
            self.memory.allocate_run(pattern, len(fresh))
            inserted = len(fresh)
        except MemoryPoolError as exc:
            failure = exc
            inserted = exc.allocated // len(pattern)
        added = fresh[:inserted]
        self._payloads.update(zip(added, [make_payload() for _ in added]))
        positions = self._positions
        for key, bucket in zip(added, self._buckets_of(added)):
            bucket.append(key)
            positions[key] = len(bucket)
        cpu = self.cpu
        cpu.hashes += inserted
        # Each key met the chain in front of its own position.
        cpu.comparisons += sum(map(positions.__getitem__, added)) - inserted
        if failure is None:
            return
        # The failing key was probed before its allocation failed.
        cpu.hashes += 1
        cpu.comparisons += self._chain_length(fresh[inserted])
        site = "find_or_insert" if failure.allocated % len(pattern) == 0 else "bitmap"
        raise self._overflow(failure, site=site) from failure

    def _charge_hits(self, keys: Sequence[tuple], inserted: Sequence[tuple]) -> None:
        """Charge ``keys`` as hits, except the first probe of each key
        in ``inserted``, which the insert charged."""
        positions = self._positions
        self.cpu.hashes += len(keys) - len(inserted)
        self.cpu.comparisons += sum(map(positions.__getitem__, keys)) - sum(
            map(positions.__getitem__, inserted)
        )

    def _probe_comparisons(self, keys: Sequence[tuple], found: list) -> int:
        """``Comp`` of probing ``keys``, whose payloads are ``found``."""
        comparisons = sum(map(self._positions.get, keys, itertools.repeat(0)))
        if None in found:
            missing = itertools.compress(keys, map(operator.is_, found, itertools.repeat(None)))
            comparisons += sum(map(len, self._buckets_of(missing)))
        return comparisons

    def _buckets_of(self, keys: Iterable[tuple]) -> Iterator[list[tuple]]:
        """The chain each of ``keys`` hashes to, computed in C."""
        bucket_of_hash = self.bucket_count.__rmod__
        return map(self._buckets.__getitem__, map(bucket_of_hash, map(hash, keys)))

    def _chain_length(self, key: tuple) -> int:
        return len(self._buckets[hash(key) % self.bucket_count])

    # -- scan and release ----------------------------------------------------

    def items(self) -> Iterator[tuple[tuple, Any]]:
        """Scan all entries bucket by bucket (Figure 1, step 3)."""
        self._check_live()
        payloads = self._payloads
        for bucket in self._buckets:
            for key in bucket:
                yield key, payloads[key]

    def free(self) -> None:
        """Release the table's memory ("free divisor table", Figure 1)."""
        if self._freed:
            return
        self.memory.free_all(tag=self.tag)
        self._buckets = []
        self._payloads = {}
        self._positions = {}
        self._freed = True

    def _check_live(self) -> None:
        if self._freed:
            raise HashTableOverflowError(f"hash table {self.tag} already freed")

    def __repr__(self) -> str:
        return (
            f"<ChainedHashTable {self.tag} {len(self)} entries in "
            f"{self.bucket_count} buckets>"
        )
