"""Hash-table overflow handling: partitioned hash-division (Section 3.4).

When divisor table plus quotient table exceed available memory, "the
input data must be partitioned into disjoint subsets called clusters
that can be processed in multiple phases".  Two strategies:

* **Quotient partitioning** -- partition the dividend on the *quotient*
  attributes.  Every cluster is divided by the *entire* divisor (whose
  table therefore stays in memory across all phases), and the quotient
  is simply the concatenation of the per-cluster quotients.

* **Divisor partitioning** -- partition both inputs on the *divisor*
  attributes with the same hash function.  Each phase divides one
  dividend cluster by one divisor cluster; a quotient tuple must
  survive *every* phase, so the per-phase quotients are tagged with
  their phase number and a final *collection phase* divides the union
  of all tagged clusters by the set of phase numbers -- "this problem
  is exactly the division problem again", and this implementation
  indeed reuses :class:`~repro.core.hash_division.HashDivision` for it
  (:func:`collection_division`, which the parallel divisor strategy of
  :mod:`repro.parallel.division` also runs).

Every strategy is built from the same three pieces: one spooler
(:func:`_spool_partitions`, which keeps cluster 0 in memory for the
hybrid variant), one divisor read (:func:`_drain`) and one phase runner
(:func:`_run_phases`, which reclaims the queued cluster files when a
phase fails).  Combined partitioning is quotient partitioning whose
per-cluster division is divisor partitioning.

:func:`hash_division_with_overflow` is the adaptive driver: it attempts
single-phase hash-division and, on
:class:`~repro.errors.HashTableOverflowError`, retries with a doubling
number of partitions, up to :data:`MAX_PARTITIONS`.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.errors import HashTableOverflowError, PartitioningError
from repro.core.hash_division import HashDivision
from repro.executor.iterator import ExecContext, QueryIterator, run_to_relation
from repro.executor.scan import RelationSource, TempFileScan
from repro.relalg.algebra import division_attribute_split
from repro.relalg.relation import Relation
from repro.relalg.schema import Attribute, Schema
from repro.relalg.tuples import projector
from repro.storage.heapfile import HeapFile

#: Name of the synthetic column carrying the phase number in the
#: collection phase's dividend.
PHASE_COLUMN = "__phase__"

#: Most partitions :func:`hash_division_with_overflow` tries before it
#: gives up.
MAX_PARTITIONS = 256


def tagged_schema(quotient_schema: Schema) -> Schema:
    """Schema of phase-tagged quotient tuples: the quotient attributes
    followed by :data:`PHASE_COLUMN`."""
    return Schema(tuple(quotient_schema) + (Attribute(PHASE_COLUMN),))


def collection_division(
    ctx: ExecContext, tagged: Relation, phase_count: int
) -> HashDivision:
    """The collection phase of divisor partitioning (§3.4, §6).

    A quotient tuple qualifies only if it survived every phase, so the
    phase-tagged quotients (schema :func:`tagged_schema`) are divided by
    the set of phase numbers -- "exactly the division problem again".
    """
    phases = Relation.of_ints((PHASE_COLUMN,), [(i,) for i in range(phase_count)])
    return HashDivision(
        RelationSource(ctx, tagged),
        RelationSource(ctx, phases),
        expected_divisor=phase_count,
    )


def _destroy_files(files: Sequence[HeapFile]) -> None:
    """Best-effort destruction of partition temp files on a failure path.

    :meth:`~repro.storage.heapfile.HeapFile.destroy` is idempotent, so
    files already consumed (and destroyed) by a ``TempFileScan`` are
    skipped harmlessly; files whose phases never ran are reclaimed.
    Destruction never raises -- cleanup must not mask the original
    error -- which is why :func:`_spool_partitions` and
    :func:`_run_phases` call this from ``except`` blocks before
    re-raising.
    """
    for file in files:
        file.destroy()


def _drain(divisor: QueryIterator) -> Relation:
    """Read the divisor once into memory: its table must outlive every
    phase, so each phase replays it from here."""
    divisor.open()
    try:
        return Relation(divisor.schema, list(divisor), name="divisor")
    finally:
        divisor.close()


def _spool_partitions(
    source: QueryIterator,
    key_names: Sequence[str],
    partitions: int,
    ctx: ExecContext,
    hybrid: bool = False,
) -> tuple[list[QueryIterator], list[HeapFile]]:
    """Hash-partition a stream into ``partitions`` clusters.

    Each tuple is hashed on ``key_names`` (one ``Hash`` charged) and
    appended to its cluster file on the 8 KB temp device.  With
    ``hybrid=True``, "the first cluster is kept in main memory while the
    other clusters are spooled to temporary files ... in a way similar
    to hybrid hash-join" (§3.4): cluster 0 never touches the temp
    device.

    Returns ``(phase_inputs, files)``: one input per cluster, in
    cluster order, and the spooled files.  Each file's scan destroys
    it on close; the caller destroys the rest on a failure.
    """
    schema = source.schema
    codec = schema.codec()
    key_of = projector(schema, key_names)
    resident: list[tuple] = []
    first_spooled = 1 if hybrid else 0
    files = [ctx.temp_file("temp") for _ in range(partitions - first_spooled)]
    cpu = ctx.cpu
    try:
        source.open()
        try:
            for row in source:
                cpu.hashes += 1
                cluster = hash(key_of(row)) % partitions
                if cluster < first_spooled:
                    resident.append(row)
                else:
                    files[cluster - first_spooled].append(codec.encode(row))
        finally:
            source.close()
    except BaseException:
        # A failed spool (e.g. a temp-device fault mid-write) must not
        # leak the partition files it already allocated.
        _destroy_files(files)
        raise
    phase_inputs: list[QueryIterator] = []
    if hybrid:
        phase_inputs.append(
            RelationSource(ctx, Relation(schema, resident, name="cluster-0"))
        )
    phase_inputs.extend(
        TempFileScan(ctx, file, schema, destroy_on_close=True) for file in files
    )
    return phase_inputs, files


def _run_phases(
    phase_inputs: Sequence[QueryIterator],
    files: Sequence[HeapFile],
    divide: Callable[[int, QueryIterator], Relation | None],
) -> list[Relation | None]:
    """Run ``divide(index, cluster)`` for each cluster, in order.

    A failed phase (overflow, injected disk fault, ...) closes *its
    own* ``TempFileScan`` -- destroying that file -- but the clusters
    queued behind it would otherwise leak temp pages, so every file is
    destroyed before the error propagates.
    """
    try:
        return [divide(index, cluster) for index, cluster in enumerate(phase_inputs)]
    except BaseException:
        _destroy_files(files)
        raise


def _quotient_partitioned(
    dividend: QueryIterator,
    divisor: QueryIterator,
    partitions: int,
    name: str,
    divide_cluster: Callable[[QueryIterator, Relation], Relation],
    hybrid: bool = False,
) -> Relation:
    """Partition the dividend on the quotient attributes and concatenate
    ``divide_cluster(cluster, divisor_relation)`` over the clusters."""
    quotient_names, _divisor_names = division_attribute_split(
        dividend.schema, divisor.schema
    )
    divisor_relation = _drain(divisor)
    phase_inputs, files = _spool_partitions(
        dividend, quotient_names, partitions, dividend.ctx, hybrid
    )
    quotients = _run_phases(
        phase_inputs,
        files,
        lambda _index, cluster: divide_cluster(cluster, divisor_relation),
    )
    result = Relation(dividend.schema.project(quotient_names), name=name)
    for quotient in quotients:
        result.extend(quotient)
    return result


def quotient_partitioned_division(
    dividend: QueryIterator,
    divisor: QueryIterator,
    partitions: int,
    name: str = "quotient",
    hybrid: bool = False,
) -> Relation:
    """Multi-phase hash-division with quotient partitioning.

    The dividend is hash-partitioned on the quotient attributes; each
    cluster is divided by the entire divisor.  Because the clusters are
    disjoint in their quotient values, the final quotient is the
    concatenation of the per-phase quotients -- no collection phase.

    With ``hybrid=True`` cluster 0 stays in memory (see
    :func:`_spool_partitions`), saving one write+read round trip for
    its share of the dividend.
    """
    if partitions <= 0:
        raise PartitioningError(f"partitions must be positive, got {partitions}")
    ctx = dividend.ctx

    def divide_cluster(cluster: QueryIterator, divisor_relation: Relation) -> Relation:
        return run_to_relation(
            HashDivision(
                cluster,
                RelationSource(ctx, divisor_relation),
                expected_divisor=len(divisor_relation),
            )
        )

    return _quotient_partitioned(
        dividend, divisor, partitions, name, divide_cluster, hybrid
    )


def divisor_partitioned_division(
    dividend: QueryIterator,
    divisor: QueryIterator,
    partitions: int,
    name: str = "quotient",
) -> Relation:
    """Multi-phase hash-division with divisor partitioning.

    Both inputs are hash-partitioned on the divisor attributes with the
    same function.  Empty divisor clusters are dropped together with
    their dividend clusters: a dividend tuple routed to an empty
    divisor cluster matches no divisor tuple and would be discarded by
    step 2 anyway.  Each phase's quotient is tagged with the phase
    number, and the collection phase divides the tagged union by the
    set of phase numbers (division, again).
    """
    if partitions <= 0:
        raise PartitioningError(f"partitions must be positive, got {partitions}")
    ctx = dividend.ctx
    quotient_names, divisor_names = division_attribute_split(
        dividend.schema, divisor.schema
    )
    divisor_relation = _drain(divisor)
    if not divisor_relation:
        # Vacuous division: delegate to single-phase hash-division,
        # which resolves an empty divisor to "every candidate".
        return run_to_relation(
            HashDivision(dividend, RelationSource(ctx, divisor_relation)), name=name
        )

    cpu = ctx.cpu
    divisor_clusters: list[list[tuple]] = [[] for _ in range(partitions)]
    for row in divisor_relation:
        cpu.hashes += 1
        divisor_clusters[hash(tuple(row)) % partitions].append(row)
    phase_inputs, files = _spool_partitions(dividend, divisor_names, partitions, ctx)

    def divide_cluster(index: int, cluster: QueryIterator) -> Relation | None:
        cluster_divisor = divisor_clusters[index]
        if not cluster_divisor:
            files[index].destroy()
            return None
        return run_to_relation(
            HashDivision(
                cluster,
                RelationSource(
                    ctx,
                    Relation(divisor.schema, cluster_divisor, name="divisor-cluster"),
                ),
                expected_divisor=len(cluster_divisor),
            )
        )

    # Phase numbering skips empty divisor clusters (see docstring).
    phase_quotients = [
        quotient
        for quotient in _run_phases(phase_inputs, files, divide_cluster)
        if quotient is not None
    ]
    tagged = Relation(
        tagged_schema(dividend.schema.project(quotient_names)),
        (
            row + (phase,)
            for phase, quotient in enumerate(phase_quotients)
            for row in quotient
        ),
        name="tagged-quotients",
    )
    return run_to_relation(
        collection_division(ctx, tagged, len(phase_quotients)), name=name
    )


def combined_partitioned_division(
    dividend: QueryIterator,
    divisor: QueryIterator,
    quotient_partitions: int,
    divisor_partitions: int,
    name: str = "quotient",
) -> Relation:
    """Both partitioning strategies together (§3.4's final question).

    "What happens if neither one of these partitioning strategies work
    because both divisor and quotient are too large?  In this case it
    will be necessary to resort to combinations of the techniques."

    This is quotient partitioning whose per-cluster division is
    :func:`divisor_partitioned_division` (its own phases plus
    collection).  A phase therefore holds only ``1/divisor_partitions``
    of the divisor table and about ``1/quotient_partitions`` of the
    quotient candidates -- both tables shrink.
    """
    if quotient_partitions <= 0 or divisor_partitions <= 0:
        raise PartitioningError("partition counts must be positive")
    ctx = dividend.ctx
    return _quotient_partitioned(
        dividend,
        divisor,
        quotient_partitions,
        name,
        lambda cluster, divisor_relation: divisor_partitioned_division(
            cluster, RelationSource(ctx, divisor_relation), divisor_partitions
        ),
    )


def hash_division_with_overflow(
    dividend: QueryIterator,
    divisor: QueryIterator,
    strategy: str = "quotient",
    name: str = "quotient",
) -> Relation:
    """Adaptive hash-division that survives hash-table overflow.

    Attempts single-phase hash-division first; when the memory pool
    overflows, retries with 2, 4, 8, ... partitions of the requested
    strategy until it fits or :data:`MAX_PARTITIONS` is exceeded.

    Args:
        dividend: The dividend; re-opened by every attempt (a failed
            attempt consumes its input).
        divisor: The divisor; re-opened by every attempt.
        strategy: ``"quotient"`` or ``"divisor"`` partitioning.
    """
    if strategy not in ("quotient", "divisor"):
        raise PartitioningError(f"unknown partitioning strategy {strategy!r}")
    partitioner = (
        quotient_partitioned_division
        if strategy == "quotient"
        else divisor_partitioned_division
    )
    tracer = dividend.ctx.tracer
    try:
        return run_to_relation(HashDivision(dividend, divisor), name=name)
    except HashTableOverflowError:
        pass
    partitions = 2
    while partitions <= MAX_PARTITIONS:
        if tracer.enabled:
            # One retry per doubling; the gauge keeps the last fan-out
            # attempted, i.e. the one that succeeded (or the ceiling).
            tracer.count("repro_division_overflow_retries_total", strategy=strategy)
            tracer.gauge(
                "repro_division_partition_fanout", partitions, strategy=strategy
            )
        try:
            return partitioner(dividend, divisor, partitions, name=name)
        except HashTableOverflowError:
            partitions *= 2
    raise HashTableOverflowError(
        f"hash-division still overflows with {MAX_PARTITIONS} partitions; "
        "increase the memory budget"
    )
