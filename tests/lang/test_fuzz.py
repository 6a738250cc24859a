"""Fuzz the text front ends: malformed input fails with a typed error.

Random strings over the lexer's alphabet (and over the ``.cdb`` line
vocabulary) go through every parser and the database decoder.  Any
exception other than :class:`~repro.errors.ReproError` would reach the
CLI as a raw traceback instead of an ``error:`` line and exit 1.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoding.standard import decode_database
from repro.errors import ReproError
from repro.lang import parse_formula, parse_linear_formula, parse_program

#: token-sized pieces of both surface syntaxes: identifiers, keywords,
#: numbers (zero denominators included), operators and punctuation
FRAGMENTS = (
    "x", "y", "E", "tc", "_a", "and", "or", "not", "exists", "forall",
    "true", "false", "implies", "iff", "0", "1", "-2", "7/2", "1/0",
    "-3/0", "0/00", "<", "<=", "=", "!=", ">=", ">", "+", "*", "-", "/",
    "(", ")", ",", ".", ":-", ":", "%", "!", " ", "\n", "@",
)

#: the ``.cdb`` encoding's line vocabulary (see repro.encoding.standard)
CDB_FRAGMENTS = (
    "relation ", "tuple", "atom ", "var:x", "var:", "const:1/2",
    "const:1/0", "const:", "const:a/b", "E", " (x, y)", "()", " < ",
    " <= ", " = ", " != ", " ? ", "\n", " ",
)

lexer_text = st.one_of(
    st.text(alphabet="xyE_019-/<=!>():,.+*% \n@", max_size=40),
    st.lists(st.sampled_from(FRAGMENTS), max_size=30).map("".join),
)
cdb_text = st.one_of(
    lexer_text,
    st.lists(st.sampled_from(CDB_FRAGMENTS), max_size=30).map("".join),
)


def _only_typed_errors(parse, text):
    try:
        parse(text)
    except ReproError:
        pass


class TestFrontEndsRaiseTypedErrors:
    @settings(max_examples=300, deadline=None)
    @given(lexer_text)
    def test_parse_formula(self, text):
        _only_typed_errors(parse_formula, text)

    @settings(max_examples=300, deadline=None)
    @given(lexer_text)
    def test_parse_program(self, text):
        _only_typed_errors(parse_program, text)

    @settings(max_examples=300, deadline=None)
    @given(lexer_text)
    def test_parse_linear_formula(self, text):
        _only_typed_errors(parse_linear_formula, text)

    @settings(max_examples=300, deadline=None)
    @given(cdb_text)
    def test_decode_database(self, text):
        _only_typed_errors(decode_database, text)
