"""Tests for schemas, attributes, and the record codec."""

import pytest

from repro.errors import SchemaError
from repro.executor.iterator import ExecContext
from repro.relalg.relation import Relation
from repro.relalg.schema import Attribute, DataType, Schema
from repro.storage.catalog import Catalog


class TestAttribute:
    def test_int_attribute_is_eight_bytes(self):
        attribute = Attribute("x")
        assert attribute.dtype is DataType.INT64
        assert attribute.size == 8
        assert attribute.struct_format == "q"

    def test_float_attribute_format(self):
        assert Attribute("x", DataType.FLOAT64).struct_format == "d"

    def test_string_attribute_carries_width(self):
        attribute = Attribute("title", DataType.STRING, 24)
        assert attribute.size == 24
        assert attribute.struct_format == "24s"

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Attribute("")

    def test_int_with_wrong_size_rejected(self):
        with pytest.raises(SchemaError):
            Attribute("x", DataType.INT64, 4)

    def test_string_needs_positive_size(self):
        with pytest.raises(SchemaError):
            Attribute("t", DataType.STRING, 0)


class TestSchema:
    def test_of_ints_builds_int_columns(self):
        schema = Schema.of_ints("a", "b", "c")
        assert schema.names == ("a", "b", "c")
        assert all(attribute.dtype is DataType.INT64 for attribute in schema)

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema.of_ints("a", "a")

    def test_empty_schema_rejected(self):
        with pytest.raises(SchemaError):
            Schema(())

    def test_position_lookup(self):
        schema = Schema.of_ints("a", "b")
        assert schema.position_of("b") == 1
        assert schema.positions_of(["b", "a"]) == (1, 0)

    def test_unknown_name_raises(self):
        with pytest.raises(SchemaError):
            Schema.of_ints("a").position_of("missing")

    def test_contains_and_getitem(self):
        schema = Schema.of_ints("a", "b")
        assert "a" in schema and "z" not in schema
        assert schema["b"].name == "b"
        assert schema[0].name == "a"

    def test_project_preserves_requested_order(self):
        schema = Schema.of_ints("a", "b", "c")
        assert schema.project(["c", "a"]).names == ("c", "a")

    def test_concat(self):
        left = Schema.of_ints("a")
        right = Schema.of_ints("b")
        assert left.concat(right).names == ("a", "b")

    def test_equality_and_hash(self):
        assert Schema.of_ints("a", "b") == Schema.of_ints("a", "b")
        assert Schema.of_ints("a") != Schema.of_ints("b")
        assert hash(Schema.of_ints("a")) == hash(Schema.of_ints("a"))

    def test_record_size_matches_paper_shapes(self):
        # Section 5.1: 8-byte divisor/quotient records, 16-byte dividend.
        assert Schema.of_ints("course_no").record_size == 8
        assert Schema.of_ints("student_id", "course_no").record_size == 16


class TestRecordCodec:
    def test_int_roundtrip(self):
        codec = Schema.of_ints("a", "b").codec()
        assert codec.record_size == 16
        row = (42, -7)
        assert codec.decode(codec.encode(row)) == row

    def test_string_roundtrip_strips_padding(self):
        schema = Schema((Attribute("name", DataType.STRING, 12), Attribute("n")))
        codec = schema.codec()
        encoded = codec.encode(("Ann", 3))
        assert len(encoded) == 20
        assert codec.decode(encoded) == ("Ann", 3)

    def test_float_roundtrip(self):
        schema = Schema((Attribute("x", DataType.FLOAT64),))
        codec = schema.codec()
        assert codec.decode(codec.encode((2.5,))) == (2.5,)

    def test_arity_mismatch_rejected(self):
        codec = Schema.of_ints("a").codec()
        with pytest.raises(SchemaError):
            codec.encode((1, 2))

    def test_bytes_accepted_for_string_attribute(self):
        schema = Schema((Attribute("name", DataType.STRING, 8),))
        codec = schema.codec()
        assert codec.decode(codec.encode((b"Barb",))) == ("Barb",)

    def test_negative_and_large_ints(self):
        codec = Schema.of_ints("a").codec()
        for value in (0, -1, 2**62, -(2**62)):
            assert codec.decode(codec.encode((value,))) == (value,)

    def test_pack_rows_equals_joined_encodes(self):
        schema = Schema((Attribute("n"), Attribute("name", DataType.STRING, 6)))
        codec = schema.codec()
        rows = [(1, "Ann"), (-2, "é€"), (3, b"raw"), (4, "")]
        assert codec.pack_rows(rows) == b"".join(map(codec.encode, rows))


class TestStringWidth:
    """A string longer than its attribute's width is refused, never cut."""

    SCHEMA = Schema((Attribute("n"), Attribute("name", DataType.STRING, 4)))

    def _refused(self, row):
        codec = self.SCHEMA.codec()
        with pytest.raises(SchemaError, match=r"'name' is 4 bytes wide; .* encodes to \d+ bytes"):
            codec.encode(row)
        with pytest.raises(SchemaError, match="'name' is 4 bytes wide"):
            codec.pack_rows([(0, "ok"), row])

    def test_over_width_rejected(self):
        self._refused((1, "abcdefg"))
        self._refused((1, b"abcde"))

    def test_ascii_at_full_width_round_trips(self):
        codec = self.SCHEMA.codec()
        assert codec.decode(codec.encode((1, "abcd"))) == (1, "abcd")
        assert codec.decode(codec.pack_rows([(1, "abcd")])) == (1, "abcd")

    def test_split_code_point_rejected(self):
        # 'aaa€' is 6 UTF-8 bytes: cut to 4 it would end mid-character
        # and fail to decode later.
        self._refused((1, "aaa€"))
        codec = self.SCHEMA.codec()
        assert codec.decode(codec.encode((1, "a€"))) == (1, "a€")

    def test_stored_copy_is_not_truncated(self):
        ctx = ExecContext()
        try:
            catalog = Catalog(ctx.pool, ctx.data_disk)
            relation = Relation(self.SCHEMA, [(1, "abcdefg"), (2, "abcdxyz")], name="r")
            with pytest.raises(SchemaError, match="encodes to 7 bytes"):
                catalog.store(relation)
            assert catalog.get("r").record_count == 0
        finally:
            ctx.close()
