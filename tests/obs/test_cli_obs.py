"""The CLI observation surfaces: ``explain`` and its report, which
``trace analyze`` prints byte for byte from the saved trace,
``--trace``, the ``--max-rounds`` diagnostics, and the hardened
``info`` subcommand."""

import json
import re

import pytest

from repro.cli import main
from repro.core.database import Database
from repro.core.relation import Relation
from repro.encoding.standard import encode_database
from repro.obs import TRACE_SCHEMA, load_trace
from repro.workloads.generators import path_graph

TC_PROGRAM = "tc(x, y) :- e(x, y).\ntc(x, z) :- tc(x, y), e(y, z).\n"


@pytest.fixture
def db_file(tmp_path):
    db = Database()
    db["e"] = Relation.from_points(("x", "y"), [(0, 1), (1, 2), (2, 3)])
    path = tmp_path / "db.cdb"
    path.write_text(encode_database(db), encoding="utf-8")
    return str(path)


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "tc.dl"
    path.write_text(TC_PROGRAM, encoding="utf-8")
    return str(path)


@pytest.fixture
def path_files(tmp_path):
    """The 6-edge path 0 - 1 - ... - 6 and its transitive closure."""
    db = tmp_path / "path.cdb"
    db.write_text(encode_database(path_graph(7)), encoding="utf-8")
    program = tmp_path / "path-tc.dl"
    program.write_text(
        "tc(x, y) :- E(x, y).\ntc(x, z) :- tc(x, y), E(y, z).\n",
        encoding="utf-8",
    )
    return str(db), str(program)


class TestExplainCommand:
    def test_program_profile(self, db_file, program_file, capsys):
        assert main(["explain", db_file, program_file]) == 0
        out = capsys.readouterr().out
        assert "fixpoint after" in out
        assert "critical path" in out
        assert "datalog.naive" in out
        assert "guard stats" in out

    def test_seminaive_engine_selectable(self, db_file, program_file, capsys):
        assert main(
            ["explain", db_file, program_file, "--engine", "seminaive"]
        ) == 0
        assert "datalog.seminaive" in capsys.readouterr().out

    def test_formula_profile(self, db_file, capsys):
        assert main(["explain", db_file, "exists y e(x, y)"]) == 0
        out = capsys.readouterr().out
        assert "generalized tuple(s)" in out
        assert "fo.evaluate" in out

    def test_writes_trace_file(self, db_file, program_file, tmp_path):
        trace = tmp_path / "trace.json"
        assert main(
            ["explain", db_file, program_file, "--trace", str(trace)]
        ) == 0
        document = load_trace(str(trace))
        assert document["schema"] == TRACE_SCHEMA
        assert document["guard"] is not None


class TestQueryObservation:
    def test_trace_flag_writes_valid_json(self, db_file, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert main(
            ["query", db_file, "exists y e(x, y)", "--trace", str(trace)]
        ) == 0
        document = json.loads(trace.read_text(encoding="utf-8"))
        assert document["schema"] == TRACE_SCHEMA
        assert any(s["name"] == "fo.evaluate" for s in document["spans"])

    def test_no_flags_no_observation_output(self, db_file, capsys):
        assert main(["query", db_file, "exists y e(x, y)"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "trace analysis" not in captured.out


class TestDatalogObservation:
    def test_trace_written_even_on_budget_trip(
        self, db_file, program_file, tmp_path, capsys
    ):
        trace = tmp_path / "trace.json"
        code = main(
            ["datalog", db_file, program_file, "--max-tuples", "1",
             "--trace", str(trace)]
        )
        assert code == 3
        document = json.loads(trace.read_text(encoding="utf-8"))
        assert document["schema"] == TRACE_SCHEMA

        # a round-budget kill: the trace alone says what aborted the
        # run, how far it got, and which rounds completed
        aborted = tmp_path / "aborted.json"
        code = main(
            ["datalog", db_file, program_file, "--max-rounds", "1",
             "--trace", str(aborted)]
        )
        assert code == 3
        document = load_trace(str(aborted))
        engine = [s for s in document["spans"] if s["name"] == "datalog.naive"]
        assert len(engine) == 1
        assert engine[0]["attrs"]["error"] == "RoundLimitExceeded"
        assert document["guard"]["rounds_completed"] >= 1
        assert any(
            s["name"] == "datalog.naive.round" for s in document["spans"]
        )
        capsys.readouterr()

    def test_max_rounds_diagnostics_report_measured_values(
        self, path_files, capsys
    ):
        """``--max-rounds`` alone builds the guard its diagnostics read:
        the 6-edge path materializes 10 tuples in two rounds."""
        assert main(["datalog", *path_files, "--max-rounds", "2"]) == 3
        [line] = [
            line for line in capsys.readouterr().err.splitlines()
            if line.startswith("diagnostics:")
        ]
        fields = dict(
            item.split("=") for item in line[len("diagnostics: "):].split(", ")
        )
        assert fields["error"] == "RoundLimitExceeded"
        assert float(fields["elapsed"]) > 0.0
        assert fields["tuples"] == "10"


def _report_after_result(out: str) -> str:
    """What ``explain`` printed after its result line (all of it when a
    budget aborted the run before there was a result)."""
    if out.startswith("result: "):
        return out.split("\n", 1)[1]
    return out


class TestOneReport:
    """``explain`` prints the report of the document ``--trace``
    writes, and ``trace analyze`` prints the same bytes from the file."""

    @pytest.mark.parametrize(
        "query, flags, code",
        [
            ("exists y (E(x, y) and E(y, z))", [], 0),
            (None, ["--engine", "seminaive"], 0),
            (None, ["--max-rounds", "1"], 3),
            (None, ["--parallel", "--workers", "2"], 0),
        ],
        ids=["fo", "seminaive-tc", "max-rounds-abort", "process-pool"],
    )
    def test_explain_prints_what_trace_analyze_prints(
        self, tmp_path, path_files, capsys, query, flags, code
    ):
        db, program = path_files
        trace = str(tmp_path / "trace.json")
        assert main(
            ["explain", db, query or program, "--trace", trace, *flags]
        ) == code
        explained = capsys.readouterr().out
        assert main(["trace", "analyze", trace]) == 0
        analyzed = capsys.readouterr().out
        assert _report_after_result(explained) == analyzed
        assert explained.startswith("result: ") == (code == 0)

        document = load_trace(trace)
        [elapsed] = re.findall(r"guard stats: elapsed (\S+)s,", analyzed)
        assert elapsed == f"{document['guard']['elapsed']:.4f}"
        if "--parallel" in flags:
            assert any(
                s["name"].startswith("worker.") for s in document["spans"]
            )
            assert re.search(r"^  join +\d+ .* \d+/\d+$", analyzed, re.M)


class TestInfoHardening:
    def test_per_relation_table(self, db_file, capsys):
        assert main(["info", db_file]) == 0
        out = capsys.readouterr().out
        assert "relation" in out
        assert "gtuples" in out
        assert "bytes" in out
        assert "e/2" in out

    def test_malformed_constant_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.cdb"
        good = encode_database(
            Database({"e": Relation.from_points(("x",), [(1,)])})
        )
        bad.write_text(good.replace("const:1/1", "const:a/b"), encoding="utf-8")
        assert main(["info", str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_operator_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.cdb"
        good = encode_database(
            Database({"e": Relation.from_points(("x",), [(1,)])})
        )
        bad.write_text(good.replace(" = ", " =? "), encoding="utf-8")
        code = main(["info", str(bad)])
        captured = capsys.readouterr()
        assert code == 1
        assert "error" in captured.err
