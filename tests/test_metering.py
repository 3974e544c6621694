"""Tests for the metering primitives."""

import pytest

from repro.metering import CpuCounters


class TestCpuCountersReset:
    def test_reset_zeroes_everything(self):
        counters = CpuCounters(comparisons=1, hashes=2, moves=3.0, bit_ops=4)
        counters.reset()
        assert counters == CpuCounters()

    def test_delta_roundtrip(self):
        counters = CpuCounters(comparisons=10)
        snap = counters.snapshot()
        counters.comparisons += 7
        counters.bit_ops += 3
        delta = counters.delta_since(snap)
        assert delta == CpuCounters(comparisons=7, bit_ops=3)


class TestErrorsHierarchy:
    def test_every_error_is_a_repro_error(self):
        import inspect

        from repro import errors

        classes = [
            obj
            for _name, obj in inspect.getmembers(errors, inspect.isclass)
            if issubclass(obj, Exception)
        ]
        assert len(classes) > 10
        for cls in classes:
            assert issubclass(cls, errors.ReproError), cls

    def test_overflow_is_an_execution_error(self):
        from repro.errors import ExecutionError, HashTableOverflowError

        assert issubclass(HashTableOverflowError, ExecutionError)

    def test_catching_the_base_class(self):
        from repro import Relation, divide
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            divide(
                Relation.of_ints(("a",), []),
                Relation.of_ints(("b",), []),
            )
