"""Reading input files: a file that is not UTF-8 text (or not JSON,
where JSON is expected) is an :class:`~repro.errors.EncodingError`
naming the file, never a bare ``UnicodeDecodeError`` or
``json.JSONDecodeError``.  A missing or unreadable file still raises
:class:`OSError`."""

from __future__ import annotations

import json
from typing import Any

from repro.errors import EncodingError

__all__ = ["read_json", "read_text"]


def read_text(path: str, what: str) -> str:
    """The UTF-8 text of ``path``; ``what`` names the file in errors
    (``"database file"``, ``"trace file"``, ...)."""
    with open(path, encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as error:
            raise EncodingError(f"{what} {path!r} is not UTF-8: {error}") from None


def read_json(path: str, what: str) -> Any:
    """The JSON value stored in the UTF-8 file ``path``."""
    try:
        return json.loads(read_text(path, what))
    except json.JSONDecodeError as error:
        raise EncodingError(f"{what} {path!r} is not JSON: {error}") from None
