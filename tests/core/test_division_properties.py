"""Property-based cross-validation of every division implementation.

The single most important invariant in the repository: all four
algorithms (plus the algebraic identity and both partitioned drivers)
compute the same quotient as the set-semantics definition, on arbitrary
inputs -- including duplicates and non-matching tuples, for the
algorithms that claim to tolerate them.
"""

from hypothesis import given, settings, strategies as st

from repro import divide
from repro.core.hash_division import HashDivision
from repro.core.partitioned import (
    divisor_partitioned_division,
    quotient_partitioned_division,
)
from repro.executor.iterator import ExecContext, run_to_relation
from repro.executor.scan import RelationSource
from repro.relalg import algebra
from repro.relalg.relation import Relation

quotient_keys = st.integers(min_value=0, max_value=5)
divisor_keys = st.integers(min_value=100, max_value=105)
noise_keys = st.integers(min_value=900, max_value=903)

dividend_rows = st.lists(
    st.tuples(quotient_keys, st.one_of(divisor_keys, noise_keys)), max_size=50
)
divisor_rows = st.lists(st.tuples(divisor_keys), max_size=8)


def as_relations(dividend, divisor):
    return (
        Relation.of_ints(("q", "d"), dividend, name="R"),
        Relation.of_ints(("d",), divisor, name="S"),
    )


def hash_division_variant(R, S, **variant):
    """Hash-division with a Section 3.3 variant, built directly."""
    ctx = ExecContext()
    return run_to_relation(
        HashDivision(RelationSource(ctx, R), RelationSource(ctx, S), **variant)
    )


@given(dividend_rows, divisor_rows)
@settings(max_examples=120, deadline=None)
def test_hash_division_matches_oracle(dividend, divisor):
    R, S = as_relations(dividend, divisor)
    expected = algebra.divide_set_semantics(R, S)
    assert divide(R, S, strategy="hash-division").set_equal(expected)


@given(dividend_rows, divisor_rows)
@settings(max_examples=120, deadline=None)
def test_hash_division_early_output_matches_oracle(dividend, divisor):
    R, S = as_relations(dividend, divisor)
    expected = algebra.divide_set_semantics(R, S)
    assert hash_division_variant(R, S, early_output=True).set_equal(expected)


@given(dividend_rows, divisor_rows)
@settings(max_examples=120, deadline=None)
def test_naive_division_matches_oracle(dividend, divisor):
    R, S = as_relations(dividend, divisor)
    expected = algebra.divide_set_semantics(R, S)
    assert divide(R, S, strategy="naive").set_equal(expected)


@given(dividend_rows, divisor_rows)
@settings(max_examples=100, deadline=None)
def test_aggregation_with_join_matches_oracle(dividend, divisor):
    R, S = as_relations(dividend, divisor)
    if not len(S):
        return  # counting cannot express the vacuous case
    expected = algebra.divide_set_semantics(R, S)
    assert divide(R, S, strategy="sort-agg with join").set_equal(expected)
    assert divide(R, S, strategy="hash-agg with join").set_equal(expected)


@given(
    st.lists(st.tuples(quotient_keys, divisor_keys), max_size=50),
    st.lists(st.tuples(divisor_keys), min_size=1, max_size=8),
)
@settings(max_examples=100, deadline=None)
def test_aggregation_without_join_under_referential_integrity(dividend, divisor):
    """Without a join, counting is correct when every dividend divisor
    value occurs in the divisor -- enforce that here by filtering."""
    divisor_values = {d for (d,) in divisor}
    dividend = [(q, d) for q, d in dividend if d in divisor_values]
    R, S = as_relations(dividend, divisor)
    expected = algebra.divide_set_semantics(R, S)
    assert divide(R, S, strategy="sort-agg no join").set_equal(expected)
    assert divide(R, S, strategy="hash-agg no join").set_equal(expected)


@given(dividend_rows, divisor_rows, st.integers(min_value=1, max_value=5))
@settings(max_examples=80, deadline=None)
def test_partitioned_division_matches_oracle(dividend, divisor, partitions):
    R, S = as_relations(dividend, divisor)
    expected = algebra.divide_set_semantics(R, S)
    ctx = ExecContext()
    quotient = quotient_partitioned_division(
        RelationSource(ctx, R), RelationSource(ctx, S), partitions
    )
    assert quotient.set_equal(expected)
    by_divisor = divisor_partitioned_division(
        RelationSource(ctx, R), RelationSource(ctx, S), partitions
    )
    assert by_divisor.set_equal(expected)


@given(st.lists(st.tuples(quotient_keys, divisor_keys), max_size=40), divisor_rows)
@settings(max_examples=80, deadline=None)
def test_counter_mode_matches_bitmap_on_duplicate_free_input(dividend, divisor):
    dividend = list(dict.fromkeys(dividend))  # deduplicate
    R, S = as_relations(dividend, divisor)
    bitmap_result = hash_division_variant(R, S, mode="bitmap")
    counter_result = hash_division_variant(R, S, mode="counter")
    assert bitmap_result.set_equal(counter_result)
