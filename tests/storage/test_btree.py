"""Tests for the B+-tree."""

import random

import pytest

from repro.errors import BTreeError
from repro.metering import CpuCounters
from repro.storage.btree import BPlusTree


class TestBasics:
    def test_empty_tree(self):
        tree = BPlusTree(order=4)
        assert len(tree) == 0
        assert tree.search((1,)) is None
        assert list(tree.items()) == []
        assert tree.height == 1

    def test_insert_and_search(self):
        tree = BPlusTree(order=4)
        tree.insert((5,), "five")
        tree.insert((3,), "three")
        assert tree.search((5,)) == "five"
        assert tree.search((3,)) == "three"
        assert tree.search((4,)) is None
        assert (5,) in tree and (4,) not in tree

    def test_duplicate_key_rejected(self):
        tree = BPlusTree(order=4)
        tree.insert((1,), "a")
        with pytest.raises(BTreeError):
            tree.insert((1,), "b")

    def test_order_must_be_at_least_three(self):
        with pytest.raises(BTreeError):
            BPlusTree(order=2)


class TestOrderingAndRange:
    def test_items_sorted(self):
        tree = BPlusTree(order=4)
        keys = list(range(50))
        random.Random(1).shuffle(keys)
        for key in keys:
            tree.insert((key,), key)
        assert [key for key, _ in tree.items()] == [(i,) for i in range(50)]

    def test_range_with_bounds(self):
        tree = BPlusTree(order=4)
        for key in range(20):
            tree.insert((key,), key)
        assert [v for _, v in tree.range((5,), (8,))] == [5, 6, 7, 8]

    def test_range_open_bounds(self):
        tree = BPlusTree(order=4)
        for key in range(10):
            tree.insert((key,), key)
        assert [v for _, v in tree.range(low=(7,))] == [7, 8, 9]
        assert [v for _, v in tree.range(high=(2,))] == [0, 1, 2]

    def test_range_between_keys(self):
        tree = BPlusTree(order=4)
        for key in (0, 10, 20):
            tree.insert((key,), key)
        assert [v for _, v in tree.range((5,), (15,))] == [10]


class TestSplitsAndHeight:
    def test_height_grows_with_size(self):
        tree = BPlusTree(order=4)
        for key in range(100):
            tree.insert((key,), key)
        assert tree.height >= 3
        assert len(tree) == 100

    def test_descending_insertions(self):
        tree = BPlusTree(order=4)
        for key in reversed(range(64)):
            tree.insert((key,), key)
        assert [key for key, _ in tree.items()] == [(i,) for i in range(64)]


class TestDelete:
    def test_delete_returns_value(self):
        tree = BPlusTree(order=4)
        tree.insert((1,), "one")
        assert tree.delete((1,)) == "one"
        assert len(tree) == 0
        assert tree.search((1,)) is None

    def test_delete_missing_rejected(self):
        tree = BPlusTree(order=4)
        with pytest.raises(BTreeError):
            tree.delete((9,))

    def test_delete_everything_in_random_order(self):
        tree = BPlusTree(order=4)
        keys = list(range(200))
        rng = random.Random(2)
        rng.shuffle(keys)
        for key in keys:
            tree.insert((key,), key)
        rng.shuffle(keys)
        for key in keys:
            assert tree.delete((key,)) == key
        assert len(tree) == 0
        assert list(tree.items()) == []
        assert tree.height == 1

    def test_interleaved_insert_delete(self):
        tree = BPlusTree(order=4)
        model: dict[tuple, int] = {}
        rng = random.Random(3)
        for step in range(2000):
            key = (rng.randrange(100),)
            if key in model and rng.random() < 0.5:
                assert tree.delete(key) == model.pop(key)
            elif key not in model:
                tree.insert(key, step)
                model[key] = step
        assert len(tree) == len(model)
        assert dict(tree.items()) == model
        assert [k for k, _ in tree.items()] == sorted(model)


class TestMetering:
    def test_comparisons_charged(self):
        cpu = CpuCounters()
        tree = BPlusTree(order=4, cpu=cpu)
        for key in range(32):
            tree.insert((key,), key)
        assert cpu.comparisons > 0
        before = cpu.comparisons
        tree.search((16,))
        assert cpu.comparisons > before
