"""Declustering helpers: hash and range partitioning.

Section 3.4 names "a partitioning strategy such as range-partitioning
or hash-partitioning"; both are provided.  Hash partitioning is the
workhorse (it needs no knowledge of the value distribution); range
partitioning is useful when the output must stay globally sorted.
"""

from __future__ import annotations

import bisect
from typing import Sequence

from repro.errors import PartitioningError
from repro.relalg.schema import Schema
from repro.relalg.tuples import Row, projector


def hash_partition(
    rows: Sequence[Row],
    schema: Schema,
    key_names: Sequence[str],
    partitions: int,
) -> list[list[Row]]:
    """Split rows into ``partitions`` clusters by key hash.

    Deterministic for a given interpreter run; equal keys always land
    in the same cluster, which is the property both partitioning
    strategies of Section 3.4 rely on.
    """
    if partitions <= 0:
        raise PartitioningError(f"partitions must be positive, got {partitions}")
    key_of = projector(schema, key_names)
    clusters: list[list[Row]] = [[] for _ in range(partitions)]
    for row in rows:
        clusters[hash(key_of(row)) % partitions].append(row)
    return clusters


def range_partition(
    rows: Sequence[Row],
    schema: Schema,
    key_names: Sequence[str],
    boundaries: Sequence[tuple],
) -> list[list[Row]]:
    """Split rows into ``len(boundaries) + 1`` ordered clusters.

    Cluster ``i`` receives keys in ``(boundaries[i-1], boundaries[i]]``
    (first cluster: up to the first boundary; last: above the last).
    Boundaries must be strictly increasing key tuples.
    """
    bounds = list(boundaries)
    if any(bounds[i] >= bounds[i + 1] for i in range(len(bounds) - 1)):
        raise PartitioningError("range boundaries must be strictly increasing")
    key_of = projector(schema, key_names)
    clusters: list[list[Row]] = [[] for _ in range(len(bounds) + 1)]
    for row in rows:
        clusters[bisect.bisect_left(bounds, key_of(row))].append(row)
    return clusters


def round_robin(rows: Sequence[Row], partitions: int) -> list[list[Row]]:
    """Decluster rows round-robin -- the initial placement of base
    relations in the shared-nothing simulation."""
    if partitions <= 0:
        raise PartitioningError(f"partitions must be positive, got {partitions}")
    clusters: list[list[Row]] = [[] for _ in range(partitions)]
    for index, row in enumerate(rows):
        clusters[index % partitions].append(row)
    return clusters
