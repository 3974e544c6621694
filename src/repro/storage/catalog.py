"""Catalog: named stored relations, and the Relation <-> HeapFile bridge.

Experiments load in-memory :class:`~repro.relalg.relation.Relation`
objects into heap files once, cold, and then run metered plans over the
files.  The catalog owns that mapping: each stored relation pairs a
heap file with the schema (codec) that interprets its records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.errors import StorageError
from repro.relalg.relation import Relation
from repro.relalg.schema import RecordCodec, Schema
from repro.relalg.tuples import Row
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.heapfile import HeapFile, RecordId


@dataclass
class StoredRelation:
    """A heap file plus the schema of its records.

    ``version`` is a **monotonic write counter**: it starts at 0 when
    the relation is created and is bumped by every catalog-mediated
    write (the initial bulk load, :meth:`Catalog.insert_rows`,
    :meth:`Catalog.delete_rows`).  The serve layer's result cache keys
    cached quotients by the versions of every input relation, so a
    cached answer can *only* be returned while the inputs are
    byte-for-byte the relations it was computed from -- staleness is
    impossible by construction, no invalidation walk required.
    """

    name: str
    schema: Schema
    file: HeapFile
    codec: RecordCodec
    version: int = 0

    def bump_version(self) -> int:
        """Advance the write counter; returns the new version."""
        self.version += 1
        return self.version

    @property
    def record_count(self) -> int:
        """Tuples stored."""
        return self.file.record_count

    @property
    def page_count(self) -> int:
        """Data pages used -- the experimental analogue of the cost
        model's page cardinality."""
        return self.file.page_count

    def scan_rows(self) -> Iterator[tuple[RecordId, Row]]:
        """Sequential scan decoding each record into a tuple, with its id."""
        for rid, record in self.file.scan():
            yield rid, self.codec.decode(record)

    def scan_tuples(self) -> Iterator[Row]:
        """Sequential scan of the tuples, decoded a page at a time."""
        return self.file.scan_tuples(self.codec)

    def to_relation(self) -> Relation:
        """Read the stored tuples back into an in-memory Relation."""
        return Relation(self.schema, self.scan_tuples(), name=self.name)


class Catalog:
    """Registry of stored relations on one buffered device.

    Args:
        pool: Buffer pool shared by all files.
        disk: Device the relations live on.
    """

    def __init__(self, pool: BufferPool, disk: SimulatedDisk) -> None:
        self.pool = pool
        self.disk = disk
        self._relations: dict[str, StoredRelation] = {}

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def names(self) -> tuple[str, ...]:
        """Stored relation names."""
        return tuple(self._relations)

    def get(self, name: str) -> StoredRelation:
        """Look up a stored relation by name."""
        try:
            return self._relations[name]
        except KeyError:
            raise StorageError(f"no stored relation named {name!r}") from None

    def create(self, name: str, schema: Schema) -> StoredRelation:
        """Create an empty stored relation."""
        if name in self._relations:
            raise StorageError(f"relation {name!r} already exists")
        stored = StoredRelation(
            name=name,
            schema=schema,
            file=HeapFile(self.pool, self.disk, name=name),
            codec=schema.codec(),
        )
        self._relations[name] = stored
        return stored

    def store(self, relation: Relation, name: str | None = None, cold: bool = True) -> StoredRelation:
        """Write an in-memory relation to a heap file.

        Args:
            relation: Tuples and schema to store.
            name: Stored name; defaults to ``relation.name``.
            cold: Flush dirty pages and drop every buffered frame of
                the device afterwards, so a following scan pays real
                read I/O -- the state the paper's experiments start in.
        """
        stored_name = name or relation.name
        if not stored_name:
            raise StorageError("relation needs a name to be stored")
        stored = self.create(stored_name, relation.schema)
        stored.file.append_rows(relation.rows, stored.codec)
        stored.bump_version()
        if cold:
            self.pool.flush_device(self.disk.name)
            self.pool.drop_device_pages(self.disk.name)
        return stored

    # -- versioned writes ----------------------------------------------

    def version(self, name: str) -> int:
        """The monotonic write-counter of one stored relation."""
        return self.get(name).version

    def versions_of(self, names: Iterable[str]) -> tuple[tuple[str, int], ...]:
        """``((name, version), ...)`` sorted by name -- the snapshot
        component of a result-cache key."""
        return tuple(sorted((name, self.get(name).version) for name in set(names)))

    def insert_rows(self, name: str, rows: Iterable[Row]) -> int:
        """Append tuples to a stored relation; bumps its version.

        Returns the new version.  This (with :meth:`delete_rows`) is
        the *versioned* write path: writes that bypass the catalog and
        mutate the heap file directly do not participate in the serve
        layer's cache-invalidation contract.  Rows are written a page
        at a time (:meth:`HeapFile.append_rows`).

        The version is bumped **even when the write fails** (a device
        fault mid-append may have applied a prefix of the rows): a
        failed write must still invalidate cached results, because the
        stored bytes may have changed.  A spurious bump only costs a
        cache miss; a missed bump would serve a stale quotient.
        """
        stored = self.get(name)
        try:
            stored.file.append_rows(rows, stored.codec)
        finally:
            stored.bump_version()
        return stored.version

    def delete_rows(self, name: str, keep) -> tuple[int, int]:
        """Delete every record whose decoded row fails ``keep(row)``.

        Returns ``(deleted_count, new_version)``.  The version is
        bumped even when nothing matched: the *write happened*, and a
        spurious bump only costs a cache miss -- the invariant
        ``same versions => same contents`` must never depend on
        predicate reasoning.
        """
        stored = self.get(name)
        deleted = 0
        try:
            victims = [
                rid for rid, row in stored.scan_rows() if not keep(row)
            ]
            for rid in victims:
                stored.file.delete(rid)
                deleted += 1
        finally:
            # Bump even on a failed/partial delete: see insert_rows.
            stored.bump_version()
        return deleted, stored.version

    def drop(self, name: str) -> None:
        """Delete a stored relation and free its pages."""
        stored = self.get(name)
        stored.file.destroy()
        del self._relations[name]
