"""Unit tests for the tokenizer."""

import pytest

from repro.errors import ParseError
from repro.lang.lexer import tokenize


def kinds(text):
    return [(k, t) for k, t, _ in tokenize(text)]


class TestTokens:
    def test_identifiers_and_keywords(self):
        assert kinds("foo and bar") == [
            ("ident", "foo"),
            ("keyword", "and"),
            ("ident", "bar"),
            ("end", ""),
        ]

    def test_numbers(self):
        assert kinds("123")[0] == ("number", "123")
        assert kinds("7/2")[0] == ("number", "7/2")

    def test_negative_numbers_in_context(self):
        toks = kinds("x < -3")
        assert ("number", "-3") in toks

    def test_negative_after_comma(self):
        toks = kinds("R(-1, 2)")
        assert ("number", "-1") in toks

    def test_operators(self):
        assert [t for k, t in kinds("x <= y") if k == "op"] == ["<="]
        assert [t for k, t in kinds("x != y") if k == "op"] == ["!="]
        assert [t for k, t in kinds("x >= y") if k == "op"] == [">="]

    def test_rule_arrow(self):
        assert ("punct", ":-") in kinds("h(x) :- b(x).")

    def test_comments_skipped(self):
        assert kinds("x % ignored\n< 1") == [
            ("ident", "x"),
            ("op", "<"),
            ("number", "1"),
            ("end", ""),
        ]

    def test_junk_rejected(self):
        with pytest.raises(ParseError):
            tokenize("x @ y")

    def test_zero_denominator_rejected_with_position(self):
        with pytest.raises(ParseError, match=r"zero denominator in number '1/00' at position 4"):
            tokenize("x < 1/00")

    def test_positions_recorded(self):
        toks = tokenize("ab cd")
        assert toks[0][2] == 0
        assert toks[1][2] == 3
