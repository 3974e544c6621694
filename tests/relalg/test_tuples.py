"""Tests for the positional tuple helpers."""

from hypothesis import given, strategies as st

from repro.relalg.schema import Schema
from repro.relalg.tuples import projector


class TestProjector:
    def test_single_attribute(self):
        schema = Schema.of_ints("a", "b")
        project = projector(schema, ["b"])
        assert project((1, 2)) == (2,)

    def test_multiple_attributes_in_requested_order(self):
        schema = Schema.of_ints("a", "b", "c")
        project = projector(schema, ["c", "a"])
        assert project((1, 2, 3)) == (3, 1)

    def test_identity_projection_returns_same_tuple(self):
        schema = Schema.of_ints("a", "b")
        project = projector(schema, ["a", "b"])
        row = (1, 2)
        assert project(row) is row

    def test_contiguous_positions_slice_the_row(self):
        schema = Schema.of_ints("a", "b", "c", "d")
        assert projector(schema, ["b", "c"])((1, 2, 3, 4)) == (2, 3)


@st.composite
def schemas_and_names(draw):
    """A schema of 1-6 attributes, names drawn from it (each at most
    once, in any order), and a row."""
    width = draw(st.integers(1, 6))
    names = [f"a{i}" for i in range(width)]
    chosen = draw(st.lists(st.sampled_from(names), min_size=1, max_size=width, unique=True))
    row = tuple(draw(st.lists(st.integers(), min_size=width, max_size=width)))
    return Schema.of_ints(*names), chosen, row


@given(schemas_and_names())
def test_projector_returns_the_tuple_at_the_positions(case):
    schema, names, row = case
    key = projector(schema, names)(row)
    assert type(key) is tuple
    assert key == tuple(row[p] for p in schema.positions_of(names))
