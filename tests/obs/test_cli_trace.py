"""The ``repro trace`` subcommand family and the ``--memory`` flag.

End-to-end through :func:`repro.cli.main`: run real workloads with
``--trace`` to produce documents, then analyze / flame / diff them,
and pin the exit-code contract (1 for a missing or malformed trace —
same class as any other input error).
"""

from __future__ import annotations

import json

import pytest

from repro.cli import EXIT_ERROR, EXIT_OK, EXIT_USAGE, main
from repro.core.database import Database
from repro.core.relation import Relation
from repro.encoding.standard import encode_database
from repro.obs import load_trace, validate_speedscope, validate_trace_diff
from repro.perf import reset_kernel_cache

TC_PROGRAM = "tc(x, y) :- e(x, y).\ntc(x, z) :- tc(x, y), e(y, z).\n"


@pytest.fixture
def db_file(tmp_path):
    db = Database()
    db["e"] = Relation.from_points(
        ("x", "y"), [(i, i + 1) for i in range(8)]
    )
    path = tmp_path / "db.cdb"
    path.write_text(encode_database(db), encoding="utf-8")
    return str(path)


@pytest.fixture
def trace_file(tmp_path, db_file):
    path = str(tmp_path / "trace.json")
    assert main(
        ["query", db_file, "exists y (e(x, y))", "--trace", path]
    ) == EXIT_OK
    return path


class TestTraceAnalyze:
    def test_prints_critical_path_and_hotspots(self, trace_file, capsys):
        assert main(["trace", "analyze", trace_file]) == EXIT_OK
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "hotspots" in out
        assert "fo.evaluate" in out

    def test_max_path_truncates(self, tmp_path, db_file, capsys):
        program = tmp_path / "tc.dl"
        program.write_text(TC_PROGRAM, encoding="utf-8")
        trace = str(tmp_path / "t.json")
        main(["datalog", db_file, str(program), "--trace", trace])
        assert main(
            ["trace", "analyze", trace, "--max-path", "2"]
        ) == EXIT_OK
        assert "more segment(s)" in capsys.readouterr().out

    def test_missing_file_exits_one(self, tmp_path, capsys):
        assert main(
            ["trace", "analyze", str(tmp_path / "nope.json")]
        ) == EXIT_ERROR

    def test_malformed_document_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "wrong/9"}', encoding="utf-8")
        assert main(["trace", "analyze", str(bad)]) == EXIT_ERROR


class TestTraceFlame:
    def test_speedscope_to_stdout_validates(self, trace_file, capsys):
        assert main(["trace", "flame", trace_file]) == EXIT_OK
        validate_speedscope(json.loads(capsys.readouterr().out))

    def test_speedscope_to_file(self, tmp_path, trace_file, capsys):
        out = str(tmp_path / "f.speedscope.json")
        assert main(["trace", "flame", trace_file, "-o", out]) == EXIT_OK
        with open(out, encoding="utf-8") as handle:
            doc = validate_speedscope(json.load(handle))
        assert doc["name"] == "trace.json"  # defaults to the basename

    def test_collapsed_to_stdout(self, trace_file, capsys):
        assert main(
            ["trace", "flame", trace_file, "--format", "collapsed"]
        ) == EXIT_OK
        out = capsys.readouterr().out
        assert "fo.evaluate" in out

    def test_name_flag_overrides_basename(self, trace_file, capsys):
        assert main(
            ["trace", "flame", trace_file, "--name", "mylabel"]
        ) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["name"] == "mylabel"


class TestTraceDiff:
    def test_diff_two_runs(self, tmp_path, db_file, capsys):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        main(["query", db_file, "exists y (e(x, y))", "--trace", a])
        main(["query", db_file, "exists y (e(x, y))", "--trace", b])
        out_doc = str(tmp_path / "diff.json")
        assert main(
            ["trace", "diff", a, b, "-o", out_doc,
             "--label-before", "run-a", "--label-after", "run-b"]
        ) == EXIT_OK
        text = capsys.readouterr().out
        assert "trace diff: run-a → run-b" in text
        with open(out_doc, encoding="utf-8") as handle:
            validate_trace_diff(json.load(handle))

    def test_missing_side_exits_one(self, tmp_path, trace_file):
        assert main(
            ["trace", "diff", trace_file, str(tmp_path / "nope.json")]
        ) == EXIT_ERROR


class TestMemoryFlag:
    def test_query_memory_requires_no_other_obs_flag(
        self, db_file, tmp_path, capsys
    ):
        # --memory alone would arm a tracer nothing reads: without
        # --trace it is a usage error that names the flag it needs
        program = tmp_path / "p.dl"
        program.write_text("p(x) :- e(x, y).\n", encoding="utf-8")
        for argv in (["query", db_file, "exists y (e(x, y))", "--memory"],
                     ["datalog", db_file, str(program), "--memory"]):
            with pytest.raises(SystemExit) as exited:
                main(argv)
            assert exited.value.code == EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.out == ""
            errors = [
                line for line in captured.err.splitlines() if "error:" in line
            ]
            assert len(errors) == 1
            assert "--memory needs --trace" in errors[0]

    def test_traced_spans_carry_memory_attrs(self, tmp_path, db_file):
        trace = str(tmp_path / "m.json")
        assert main(
            ["query", db_file, "exists y (e(x, y))", "--trace", trace,
             "--memory"]
        ) == EXIT_OK
        with open(trace, encoding="utf-8") as handle:
            document = json.load(handle)
        attred = [
            s for s in document["spans"]
            if "mem_alloc_blocks" in (s.get("attrs") or {})
        ]
        assert attred

    def test_memory_off_leaves_trace_clean(self, tmp_path, db_file):
        trace = str(tmp_path / "m.json")
        main(["query", db_file, "exists y (e(x, y))", "--trace", trace])
        with open(trace, encoding="utf-8") as handle:
            document = json.load(handle)
        assert all(
            "mem_alloc_blocks" not in (s.get("attrs") or {})
            for s in document["spans"]
        )

    def test_tracemalloc_backend_adds_alloc_bytes(self, tmp_path, db_file):
        trace = str(tmp_path / "m.json")
        assert main(
            ["query", db_file, "exists y (e(x, y))", "--trace", trace,
             "--memory", "--memory-backend", "tracemalloc"]
        ) == EXIT_OK
        with open(trace, encoding="utf-8") as handle:
            document = json.load(handle)
        assert any(
            "mem_alloc_bytes" in (s.get("attrs") or {})
            for s in document["spans"]
        )

    def test_results_byte_identical_with_memory(self, db_file, tmp_path, capsys):
        trace = str(tmp_path / "m.json")
        assert main(["query", db_file, "exists y (e(x, y))"]) == EXIT_OK
        plain = capsys.readouterr().out
        assert main(
            ["query", db_file, "exists y (e(x, y))", "--trace", trace,
             "--memory"]
        ) == EXIT_OK
        assert capsys.readouterr().out == plain

    def test_explain_memory_renders_attribution_table(
        self, db_file, capsys
    ):
        assert main(
            ["explain", db_file, "exists y (e(x, y))", "--memory"]
        ) == EXIT_OK
        assert "memory attribution" in capsys.readouterr().out


class TestExplainTrace:
    def test_explain_trace_carries_the_memo_counters(
        self, tmp_path, db_file, capsys
    ):
        """The trace document of an ``explain`` run records the
        operation memo's traffic next to the kernel cache's."""
        program = tmp_path / "tc.dl"
        program.write_text(TC_PROGRAM, encoding="utf-8")
        trace = str(tmp_path / "explain.json")
        reset_kernel_cache()  # a cold memo: the first round misses
        assert main(
            ["explain", db_file, str(program), "--trace", trace]
        ) == EXIT_OK
        capsys.readouterr()
        counters = load_trace(trace)["metrics"]["counters"]
        # the naive engine re-derives every round, so the memo serves
        # the renames and projections of earlier rounds
        assert counters["kernel.memo.hits"] > 0
        assert counters["kernel.memo.misses"] > 0
