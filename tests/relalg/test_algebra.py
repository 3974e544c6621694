"""Tests for the in-memory relational algebra (the oracle layer)."""

import pytest

from repro.errors import DivisionError, SchemaError
from repro.relalg import algebra
from repro.relalg.predicates import AttributeEquals
from repro.relalg.relation import Relation


class TestSelectProject:
    def test_select(self):
        relation = Relation.of_ints(("a", "b"), [(1, 1), (2, 2)])
        result = algebra.select(relation, AttributeEquals("a", 2))
        assert result.rows == [(2, 2)]

    def test_project_distinct(self):
        relation = Relation.of_ints(("a", "b"), [(1, 1), (1, 2)])
        result = algebra.project(relation, ["a"])
        assert result.rows == [(1,)]

    def test_project_bag(self):
        relation = Relation.of_ints(("a", "b"), [(1, 1), (1, 2)])
        result = algebra.project(relation, ["a"], distinct=False)
        assert result.rows == [(1,), (1,)]

    def test_project_reorders(self):
        relation = Relation.of_ints(("a", "b"), [(1, 2)])
        assert algebra.project(relation, ["b", "a"]).rows == [(2, 1)]


class TestSetOperations:
    def test_union_deduplicates(self):
        left = Relation.of_ints(("a",), [(1,), (2,)])
        right = Relation.of_ints(("a",), [(2,), (3,)])
        assert sorted(algebra.union(left, right).rows) == [(1,), (2,), (3,)]

    def test_union_all_concatenates(self):
        left = Relation.of_ints(("a",), [(1,)])
        right = Relation.of_ints(("a",), [(1,)])
        assert algebra.union_all(left, right).rows == [(1,), (1,)]

    def test_difference(self):
        left = Relation.of_ints(("a",), [(1,), (2,), (2,)])
        right = Relation.of_ints(("a",), [(2,)])
        assert algebra.difference(left, right).rows == [(1,)]

    def test_schema_mismatch_rejected(self):
        left = Relation.of_ints(("a",), [])
        right = Relation.of_ints(("b",), [])
        with pytest.raises(SchemaError):
            algebra.union(left, right)


class TestJoins:
    def test_cartesian_product(self):
        left = Relation.of_ints(("a",), [(1,), (2,)])
        right = Relation.of_ints(("b",), [(10,), (20,)])
        product = algebra.cartesian_product(left, right)
        assert len(product) == 4
        assert product.schema.names == ("a", "b")

    def test_semi_join(self):
        left = Relation.of_ints(("a", "k"), [(1, 7), (2, 9)])
        right = Relation.of_ints(("k",), [(7,)])
        assert algebra.semi_join(left, right).rows == [(1, 7)]

    def test_semi_join_preserves_duplicates(self):
        left = Relation.of_ints(("a", "k"), [(1, 7), (1, 7)])
        right = Relation.of_ints(("k",), [(7,)])
        assert algebra.semi_join(left, right).rows == [(1, 7), (1, 7)]

    def test_semi_join_needs_common_attribute(self):
        left = Relation.of_ints(("a",), [])
        right = Relation.of_ints(("b",), [])
        with pytest.raises(SchemaError):
            algebra.semi_join(left, right)


class TestDivision:
    def test_paper_first_example(self, transcript, courses, expected_quotient):
        result = algebra.divide_set_semantics(transcript, courses)
        assert set(result.rows) == expected_quotient

    def test_identity_matches_definition(self, transcript, courses):
        direct = algebra.divide_set_semantics(transcript, courses)
        identity = algebra.divide_by_identity(transcript, courses)
        assert direct.set_equal(identity)

    def test_empty_divisor_is_vacuous(self):
        dividend = Relation.of_ints(("q", "d"), [(1, 5), (2, 6), (1, 5)])
        divisor = Relation.of_ints(("d",), [])
        result = algebra.divide_set_semantics(dividend, divisor)
        assert sorted(result.rows) == [(1,), (2,)]
        identity = algebra.divide_by_identity(dividend, divisor)
        assert identity.set_equal(result)

    def test_empty_dividend_yields_empty_quotient(self):
        dividend = Relation.of_ints(("q", "d"), [])
        divisor = Relation.of_ints(("d",), [(1,)])
        assert algebra.divide_set_semantics(dividend, divisor).rows == []

    def test_duplicates_in_either_input_ignored(self):
        dividend = Relation.of_ints(("q", "d"), [(1, 5), (1, 5), (1, 6)])
        divisor = Relation.of_ints(("d",), [(5,), (6,), (5,)])
        assert algebra.divide_set_semantics(dividend, divisor).rows == [(1,)]

    def test_multi_attribute_divisor(self):
        dividend = Relation.of_ints(
            ("q", "d1", "d2"), [(1, 5, 50), (1, 6, 60), (2, 5, 50)]
        )
        divisor = Relation.of_ints(("d1", "d2"), [(5, 50), (6, 60)])
        assert algebra.divide_set_semantics(dividend, divisor).rows == [(1,)]

    def test_multi_attribute_quotient(self):
        dividend = Relation.of_ints(
            ("q1", "q2", "d"), [(1, 1, 5), (1, 1, 6), (1, 2, 5)]
        )
        divisor = Relation.of_ints(("d",), [(5,), (6,)])
        assert algebra.divide_set_semantics(dividend, divisor).rows == [(1, 1)]

    def test_divisor_attribute_missing_from_dividend(self):
        dividend = Relation.of_ints(("q", "d"), [])
        divisor = Relation.of_ints(("x",), [])
        with pytest.raises(DivisionError):
            algebra.division_attribute_split(dividend.schema, divisor.schema)

    def test_divisor_covering_all_attributes_rejected(self):
        dividend = Relation.of_ints(("q", "d"), [])
        divisor = Relation.of_ints(("q", "d"), [])
        with pytest.raises(DivisionError):
            algebra.division_attribute_split(dividend.schema, divisor.schema)

    def test_attribute_split_orders_by_dividend_schema(self):
        dividend = Relation.of_ints(("a", "d", "b"), [])
        divisor = Relation.of_ints(("d",), [])
        quotient_names, divisor_names = algebra.division_attribute_split(
            dividend.schema, divisor.schema
        )
        assert quotient_names == ("a", "b")
        assert divisor_names == ("d",)
