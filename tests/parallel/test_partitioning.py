"""Tests for declustering helpers."""

import pytest

from repro.errors import PartitioningError
from repro.parallel.partitioning import (
    hash_partition,
    range_partition,
    round_robin,
)
from repro.relalg.schema import Schema

SCHEMA = Schema.of_ints("q", "d")


class TestHashPartition:
    def test_partitions_cover_input(self):
        rows = [(i, i * 2) for i in range(100)]
        clusters = hash_partition(rows, SCHEMA, ["q"], 7)
        assert sum(len(c) for c in clusters) == 100
        assert sorted(r for c in clusters for r in c) == rows

    def test_equal_keys_land_together(self):
        rows = [(1, d) for d in range(10)] + [(2, d) for d in range(10)]
        clusters = hash_partition(rows, SCHEMA, ["q"], 5)
        for cluster in clusters:
            keys = {row[0] for row in cluster}
            # A cluster may hold both keys, but each key is whole.
            for key in keys:
                assert sum(1 for row in cluster if row[0] == key) == 10

    def test_single_partition(self):
        rows = [(1, 2)]
        assert hash_partition(rows, SCHEMA, ["q"], 1) == [rows]

    def test_invalid_count(self):
        with pytest.raises(PartitioningError):
            hash_partition([], SCHEMA, ["q"], 0)


class TestRangePartition:
    def test_boundaries_split_ordered(self):
        # Cluster i holds keys in (boundaries[i-1], boundaries[i]].
        rows = [(i, 0) for i in range(10)]
        clusters = range_partition(rows, SCHEMA, ["q"], [(3,), (7,)])
        assert clusters[0] == [(i, 0) for i in range(4)]
        assert clusters[1] == [(i, 0) for i in range(4, 8)]
        assert clusters[2] == [(i, 0) for i in range(8, 10)]

    def test_unsorted_boundaries_rejected(self):
        with pytest.raises(PartitioningError):
            range_partition([], SCHEMA, ["q"], [(7,), (3,)])

    def test_no_boundaries_single_cluster(self):
        rows = [(1, 0), (2, 0)]
        assert range_partition(rows, SCHEMA, ["q"], []) == [rows]


class TestRoundRobin:
    def test_even_distribution(self):
        rows = [(i, 0) for i in range(10)]
        clusters = round_robin(rows, 3)
        assert [len(c) for c in clusters] == [4, 3, 3]

    def test_invalid_count(self):
        with pytest.raises(PartitioningError):
            round_robin([], 0)
