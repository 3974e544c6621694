"""Tests for table rendering."""

from repro.experiments.report import render_table


class TestRenderTable:
    def test_alignment_and_title(self):
        text = render_table(
            ("name", "value"),
            [("a", 1), ("bbbb", 22)],
            title="T",
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert set(lines[2]) <= {"-", " "}
        assert len(lines) == 5

    def test_number_formatting(self):
        text = render_table(("x",), [(1234567,), (3.14159,), (123.4,)])
        assert "1,234,567" in text
        assert "3.14" in text
        assert "123" in text

    def test_bool_formatting(self):
        text = render_table(("ok",), [(True,), (False,)])
        assert "yes" in text and "no" in text

    def test_empty_rows(self):
        text = render_table(("a", "b"), [])
        assert "a" in text and "b" in text
