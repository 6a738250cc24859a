"""The CLI observation surfaces: explain, --trace, --profile, --stats,
and the hardened ``info`` subcommand."""

import json

import pytest

from repro.cli import main
from repro.core.database import Database
from repro.core.relation import Relation
from repro.encoding.standard import encode_database
from repro.obs import TRACE_SCHEMA, load_trace

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


class TestExplainCommand:
    def test_program_profile(self, db_file, program_file, capsys):
        assert main(["explain", db_file, program_file]) == 0
        out = capsys.readouterr().out
        assert "fixpoint after" in out
        assert "evaluation profile" in out
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

    def test_profile_flag_prints_tree(self, db_file, capsys):
        assert main(["query", db_file, "exists y e(x, y)", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "evaluation profile" in out
        assert "quantifier elimination" in out

    def test_stats_flag_prints_guard_table(self, db_file, capsys):
        assert main(["query", db_file, "exists y e(x, y)", "--stats"]) == 0
        captured = capsys.readouterr()
        assert "guard stats" in captured.err
        assert "guard stats" not in captured.out  # result stream stays clean

    def test_verbose_metrics_on_stderr(self, db_file, capsys):
        assert main(["query", db_file, "exists y e(x, y)", "-v"]) == 0
        assert "qe.eliminated_vars" in capsys.readouterr().err

    def test_no_flags_no_observation_output(self, db_file, capsys):
        assert main(["query", db_file, "exists y e(x, y)"]) == 0
        captured = capsys.readouterr()
        assert "metrics" not in captured.err
        assert "profile" not in captured.out


class TestDatalogObservation:
    def test_stats_and_profile_together(self, db_file, program_file, capsys):
        assert main(
            ["datalog", db_file, program_file, "--profile", "--stats"]
        ) == 0
        captured = capsys.readouterr()
        assert "fixpoint after" in captured.out
        assert "evaluation profile" in captured.out
        assert "guard stats" in captured.err

    def test_stats_and_profile_print_each_block_once(
        self, db_file, program_file, capsys
    ):
        """The guard table goes to stderr, the quantiles with the
        profile to stdout, and neither is repeated on the other stream."""
        assert main(
            ["datalog", db_file, program_file, "--profile", "--stats"]
        ) == 0
        captured = capsys.readouterr()
        both = captured.out + captured.err
        assert both.count("guard stats") == 1
        assert both.count("latency quantiles") == 1
        assert "guard stats" in captured.err
        assert "latency quantiles" in captured.out

    def test_stats_alone_prints_the_quantiles_on_stderr(
        self, db_file, program_file, capsys
    ):
        assert main(["datalog", db_file, program_file, "--stats"]) == 0
        captured = capsys.readouterr()
        assert captured.err.count("latency quantiles") == 1
        assert "latency quantiles" not in captured.out

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
