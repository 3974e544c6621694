"""Property test: the narrated trace agrees with the real operator.

``repro.core.trace.trace_hash_division`` is a deliberately independent
third implementation of hash-division (plain dictionaries, written to
mirror Figure 1 line by line).  On arbitrary workloads -- duplicates,
non-matching noise tuples, empty inputs -- its quotient must equal what
the production :class:`~repro.core.hash_division.HashDivision` operator
produces, and both must equal the set-semantics oracle.  Its event
stream must also stay internally consistent with the quotient it
reports.
"""

from hypothesis import given, settings, strategies as st

from repro import divide
from repro.core.trace import trace_hash_division
from repro.relalg import algebra
from repro.relalg.relation import Relation

quotient_keys = st.integers(min_value=0, max_value=5)
divisor_keys = st.integers(min_value=100, max_value=105)
noise_keys = st.integers(min_value=900, max_value=903)

dividend_rows = st.lists(
    st.tuples(quotient_keys, st.one_of(divisor_keys, noise_keys)), max_size=50
)
divisor_rows = st.lists(st.tuples(divisor_keys), min_size=1, max_size=8)


def as_relations(dividend, divisor):
    return (
        Relation.of_ints(("q", "d"), dividend, name="R"),
        Relation.of_ints(("d",), divisor, name="S"),
    )


@given(dividend_rows, divisor_rows)
@settings(max_examples=150, deadline=None)
def test_trace_quotient_matches_hash_division(dividend, divisor):
    R, S = as_relations(dividend, divisor)
    trace = trace_hash_division(R, S)
    operator_quotient = divide(R, S, strategy="hash-division")
    assert sorted(set(trace.quotient)) == sorted(set(operator_quotient.rows))


@given(dividend_rows, divisor_rows)
@settings(max_examples=150, deadline=None)
def test_trace_quotient_matches_oracle(dividend, divisor):
    R, S = as_relations(dividend, divisor)
    trace = trace_hash_division(R, S)
    expected = algebra.divide_set_semantics(R, S)
    assert sorted(set(trace.quotient)) == sorted(set(expected.rows))


@given(dividend_rows, divisor_rows)
@settings(max_examples=100, deadline=None)
def test_trace_events_consistent_with_quotient(dividend, divisor):
    """Every emitted quotient tuple has an ``emit`` event, every
    candidate either emits or is rejected, and divisor numbering is
    dense (0..n-1 over the distinct divisor tuples)."""
    R, S = as_relations(dividend, divisor)
    trace = trace_hash_division(R, S)

    emitted = {event.tuple_ for event in trace.of_kind("emit")}
    assert emitted == set(trace.quotient)

    candidates = {event.tuple_ for event in trace.of_kind("new-candidate")}
    rejected = {event.tuple_ for event in trace.of_kind("reject")}
    assert emitted | rejected == candidates
    assert emitted & rejected == set()

    numbers = [
        event.divisor_number for event in trace.of_kind("assign-divisor-number")
    ]
    assert numbers == list(range(len(set(map(tuple, S.rows)))))
