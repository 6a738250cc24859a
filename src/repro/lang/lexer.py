"""Tokenizer for the textual query language.

One lexer serves both surface syntaxes (FO formulas and Datalog
programs).  Tokens:

* identifiers  ``[A-Za-z_][A-Za-z0-9_]*`` (keywords carved out later);
* numbers      ``123``, ``-4``, ``7/2``, ``-22/7`` (exact rationals);
* comparison   ``< <= = != >= >``;
* arithmetic   ``+ * -`` (FO+ linear expressions; ``-`` doubles as the
  sign of a numeric literal where no left operand precedes it);
* punctuation  ``( ) , . :-`` and the quantifier dot;
* keywords     ``and or not exists forall true false``.

Whitespace separates; ``%`` starts a comment to end of line.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Optional, Tuple

from repro.errors import ParseError

__all__ = ["Token", "tokenize", "KEYWORDS"]

KEYWORDS = frozenset(
    {"and", "or", "not", "exists", "forall", "true", "false", "implies", "iff"}
)

#: (kind, text, position); kinds: ident, keyword, number, op, punct, end
Token = Tuple[str, str, int]

_PUNCT = {"(", ")", ",", ".", ":-"}
_OPS = {"<", "<=", "=", "!=", ">=", ">"}
_ARITH = {"+", "*", "-"}


def tokenize(text: str) -> List[Token]:
    """Tokenize; raises :class:`ParseError` on junk."""
    tokens: List[Token] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "keyword" if word in KEYWORDS else "ident"
            tokens.append((kind, word, i))
            i = j
            continue
        if c.isdigit() or (
            c == "-" and i + 1 < n and text[i + 1].isdigit() and _number_context(tokens)
        ):
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "/" and j + 1 < n and text[j + 1].isdigit():
                j += 1
                start = j
                while j < n and text[j].isdigit():
                    j += 1
                if int(text[start:j]) == 0:
                    raise ParseError(
                        f"zero denominator in number {text[i:j]!r} at position {i}"
                    )
            tokens.append(("number", text[i:j], i))
            i = j
            continue
        if c == ":" and i + 1 < n and text[i + 1] == "-":
            tokens.append(("punct", ":-", i))
            i += 2
            continue
        two = text[i : i + 2]
        if two in _OPS:
            tokens.append(("op", two, i))
            i += 2
            continue
        if c in _OPS:
            tokens.append(("op", c, i))
            i += 1
            continue
        if c in _PUNCT:
            tokens.append(("punct", c, i))
            i += 1
            continue
        if c in _ARITH:
            tokens.append(("arith", c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r} at position {i}")
    tokens.append(("end", "", n))
    return tokens


def _number_context(tokens: List[Token]) -> bool:
    """Is a leading '-' starting a negative number (not a binary minus)?

    The language has no arithmetic, so '-' only ever introduces a
    negative literal; it is valid after operators, commas, or opening
    parens.
    """
    if not tokens:
        return True
    kind, text, _ = tokens[-1]
    return kind in ("op", "keyword") or text in ("(", ",", ":-")
