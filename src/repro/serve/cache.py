"""Plan and result caches with monotonic-version invalidation.

The rank-aware-division literature (PAPERS.md) motivates the serving
pattern this module exploits: the same parameterized division is asked
again and again over slowly-changing relations.  Two caches:

* the **plan cache** memoizes the expensive part of planning: the
  :class:`~repro.plan.planner.DivisionDecision` made by
  :func:`repro.plan.planner.decide_division`, whose exact statistics
  pass *reads both inputs*, paying metered I/O.  It is keyed by the
  normalized logical-plan key, and a hit is handed straight to
  ``compile_plan(node, ctx, decision=...)``,
* the **result cache** memoizes whole quotients, keyed by the plan key
  *plus the input relations' versions*.

Staleness is impossible **by construction**: every catalog-mediated
write bumps the written relation's monotonic version counter
(:class:`repro.storage.catalog.StoredRelation.version`), and a cached
entry is returned only when the versions recorded at compute time
equal the versions read under the same table locks the query itself
holds.  There is no invalidation walk to forget and no TTL to tune;
an entry computed at versions ``V`` simply never matches a lookup at
``V' != V``.  (The division algorithm *choice* is data-dependent --
e.g. the no-join counting strategies are only correct while the
dividend's divisor values are covered -- so the plan cache is
version-guarded too: a write invalidates the decision along with the
result.)

Both caches are bounded LRU and count hits / misses / evictions /
invalidations into the ``repro_serve_*`` metric families.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from repro.errors import ServeError
from repro.plan.logical import (
    DistinctNode,
    DivideNode,
    FilterNode,
    LogicalNode,
    ProjectNode,
    SourceNode,
    StoredSourceNode,
)

#: ``((table_name, version), ...)`` sorted by name -- the snapshot half
#: of a cache key (see :meth:`repro.storage.catalog.Catalog.versions_of`).
VersionVector = tuple[tuple[str, int], ...]


def plan_key(node: LogicalNode) -> str:
    """Normalize a logical plan into a canonical cache-key string.

    Stored sources key by *catalog name* (stable across plan objects);
    in-memory sources key by object identity, which makes two plans
    over distinct ad-hoc relations distinct -- correct, just never
    shared.  Filters key by predicate ``repr`` (predicates are small
    frozen dataclasses whose repr is canonical).
    """
    if isinstance(node, StoredSourceNode):
        return f"stored({node.stored.name})"
    if isinstance(node, SourceNode):
        return f"source@{id(node.relation):x}"
    if isinstance(node, FilterNode):
        return f"filter({node.predicate!r},{plan_key(node.child)})"
    if isinstance(node, ProjectNode):
        return f"project({','.join(node.names)},{plan_key(node.child)})"
    if isinstance(node, DistinctNode):
        return f"distinct({plan_key(node.child)})"
    if isinstance(node, DivideNode):
        restricted = ",restricted" if node.divisor_restricted else ""
        return (
            f"divide({plan_key(node.dividend)},"
            f"{plan_key(node.divisor)}{restricted})"
        )
    raise ServeError(f"unkeyable logical node {type(node).__name__}")


def stored_table_names(node: LogicalNode) -> tuple[str, ...]:
    """Every catalog table a logical plan reads (sorted, deduplicated).

    These are the tables whose versions key the caches and whose locks
    the service acquires before touching either cache.
    """
    names: set[str] = set()

    def walk(n: LogicalNode) -> None:
        if isinstance(n, StoredSourceNode):
            names.add(n.stored.name)
        for child in n.children():
            walk(child)

    walk(node)
    return tuple(sorted(names))


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass
class _Entry:
    versions: VersionVector
    payload: object


class VersionedCache:
    """Bounded LRU mapping ``plan_key`` -> payload valid at one
    version vector.

    One entry per plan key: a lookup whose current versions differ
    from the stored entry's versions counts as an *invalidation* (the
    entry is dropped -- versions are monotonic, it can never match
    again) plus a miss.  The subsequent :meth:`put` re-fills the slot.

    Args:
        name: Metric label (``plan`` / ``result``).
        capacity: Maximum entries; least recently *used* is evicted.
        metrics: Optional registry for ``repro_serve_<name>_cache_*``.
    """

    def __init__(self, name: str, capacity: int = 64, metrics=None) -> None:
        if capacity <= 0:
            raise ServeError("cache capacity must be positive")
        self.name = name
        self.capacity = capacity
        self.metrics = metrics
        self.stats = CacheStats()
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def _count(self, event: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(
                f"repro_serve_{self.name}_cache_{event}_total"
            ).inc()

    def get(self, key: str, versions: VersionVector) -> Optional[object]:
        """The payload cached for ``key`` at exactly ``versions``.

        The caller must already hold (shared) locks on every table in
        ``versions`` -- the service guarantees this -- so the versions
        cannot move between this check and the use of the payload.
        """
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            self._count("misses")
            return None
        if entry.versions != versions:
            # Monotonic counters: a mismatched entry is dead forever.
            del self._entries[key]
            self.stats.invalidations += 1
            self.stats.misses += 1
            self._count("invalidations")
            self._count("misses")
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        self._count("hits")
        return entry.payload

    def put(self, key: str, versions: VersionVector, payload: object) -> None:
        """Install/replace the entry for ``key`` (valid at ``versions``)."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = _Entry(versions, payload)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
            self._count("evictions")

    def clear(self) -> None:
        """Drop every entry (stats survive)."""
        self._entries.clear()


@dataclass
class CachedResult:
    """The result cache's payload: a finished quotient."""

    rows: tuple
    schema: object
    strategy: str
