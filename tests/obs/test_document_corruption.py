"""One-field corruptions of the JSON documents the CLI writes.

A real ``repro trace diff -o`` document (``repro.trace-diff/1``) gets
one field replaced, at any depth, by an arbitrary JSON value.  The
validator must then either raise ``EncodingError`` or accept the
document, and a document it accepts must render.  (The
``repro.trace/1`` loader has the same suite in
``test_trace_validation.py``.)"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.database import Database
from repro.core.relation import Relation
from repro.encoding.standard import encode_database
from repro.errors import EncodingError
from repro.obs import render_trace_diff, validate_trace_diff
from tests.strategies import json_values

TC_PROGRAM = "tc(x, y) :- edge(x, y).\ntc(x, z) :- tc(x, y), edge(y, z).\n"


def _real_document():
    """The trace-diff document of a small TC workload, as the CLI
    writes it."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        db = Database({"edge": Relation.from_points(
            ("x", "y"), [(i, i + 1) for i in range(6)]
        )})
        (root / "db.cdb").write_text(encode_database(db), encoding="utf-8")
        (root / "tc.dl").write_text(TC_PROGRAM, encoding="utf-8")
        files = {name: str(root / name) for name in (
            "db.cdb", "tc.dl", "before.json", "after.json", "diff.json",
        )}
        runs = [
            ["datalog", "db.cdb", "tc.dl", "--trace", "before.json"],
            ["datalog", "db.cdb", "tc.dl", "--optimize", "heuristic",
             "--trace", "after.json"],
            ["trace", "diff", "before.json", "after.json", "-o", "diff.json"],
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in runs:
                assert main([files.get(arg, arg) for arg in argv]) == 0
        return json.loads((root / "diff.json").read_text(encoding="utf-8"))


#: the real document, corrupted field by field below (never mutated
#: itself)
TRACE_DIFF = _real_document()


def _paths(node, prefix=()):
    """The path of every field inside ``node``: each object value and
    array item, at any depth."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _replaced(document, path, value):
    corrupted = copy.deepcopy(document)
    target = corrupted
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return corrupted


TRACE_DIFF_PATHS = list(_paths(TRACE_DIFF))


def test_real_documents_are_valid_and_non_trivial():
    validate_trace_diff(copy.deepcopy(TRACE_DIFF))
    assert TRACE_DIFF["operators"] and TRACE_DIFF["counters"]


@pytest.mark.parametrize("value", [True, None, "v1", ["a", "b"], {"before": 1}])
def test_malformed_labels_are_encoding_errors(value):
    with pytest.raises(EncodingError, match="labels"):
        validate_trace_diff(_replaced(TRACE_DIFF, ("labels",), value))


@pytest.mark.parametrize(
    "path",
    [("total", "before_seconds"), ("operators", 0, "delta_self_seconds")],
    ids=["total-seconds", "row-seconds"],
)
def test_boolean_numbers_are_encoding_errors(path):
    with pytest.raises(EncodingError):
        validate_trace_diff(_replaced(TRACE_DIFF, path, True))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(TRACE_DIFF_PATHS), json_values)
def test_any_trace_diff_field_is_rejected_or_renders(path, value):
    corrupted = _replaced(TRACE_DIFF, path, value)
    try:
        validate_trace_diff(corrupted)
    except EncodingError:
        return
    # a document that validates is safe for the trace-diff renderer
    render_trace_diff(corrupted)
