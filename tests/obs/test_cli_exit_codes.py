"""The CLI exit-code contract: 0 ok, 1 input error, 2 usage, 3 budget,
5 shard failure — one code per failure class, documented in README."""

import json

import pytest

from repro.cli import (
    EXIT_BUDGET,
    EXIT_ERROR,
    EXIT_OK,
    EXIT_SHARD,
    EXIT_USAGE,
    main,
)
from repro.core.database import Database
from repro.core.relation import Relation
from repro.encoding.standard import encode_database

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


class TestDistinctCodes:
    def test_the_five_codes_are_distinct_and_documented(self):
        codes = [EXIT_OK, EXIT_ERROR, EXIT_USAGE, EXIT_BUDGET, EXIT_SHARD]
        assert codes == [0, 1, 2, 3, 5]


class TestExitOk:
    def test_successful_query(self, db_file, capsys):
        assert main(["query", db_file, "exists y e(x, y)"]) == EXIT_OK
        capsys.readouterr()


class TestExitError:
    def test_missing_input_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.cdb")
        assert main(["query", missing, "e(x, y)"]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_malformed_database(self, tmp_path, capsys):
        path = tmp_path / "bad.cdb"
        path.write_text("this is not a constraint database", encoding="utf-8")
        assert main(["query", str(path), "e(x, y)"]) == EXIT_ERROR
        capsys.readouterr()

    def test_malformed_formula(self, db_file, capsys):
        assert main(["query", db_file, "exists exists ((("]) == EXIT_ERROR
        capsys.readouterr()

    @staticmethod
    def assert_one_error_line(capsys):
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err
        return lines[0]

    def test_zero_denominator_in_query(self, db_file, capsys):
        assert main(["query", db_file, "e(x, y) and x < 1/0"]) == EXIT_ERROR
        self.assert_one_error_line(capsys)

    def test_zero_denominator_in_program(self, db_file, tmp_path, capsys):
        path = tmp_path / "zero.dl"
        path.write_text("p(x) :- e(x, y), y < 1/0.\n", encoding="utf-8")
        assert main(["datalog", db_file, str(path)]) == EXIT_ERROR
        self.assert_one_error_line(capsys)

    @pytest.mark.parametrize("argv", [
        pytest.param(["info", "BAD"], id="info-database"),
        pytest.param(["query", "BAD", "e(x, y)"], id="query-database"),
        pytest.param(["datalog", "BAD", "PROGRAM"], id="datalog-database"),
        pytest.param(["datalog", "DB", "BAD"], id="datalog-program"),
        pytest.param(["explain", "DB", "BAD"], id="explain-program"),
        pytest.param(["plan", "DB", "BAD"], id="plan-program"),
        pytest.param(["trace", "analyze", "BAD"], id="trace-analyze"),
        pytest.param(["trace", "flame", "BAD"], id="trace-flame"),
        pytest.param(["trace", "diff", "BAD", "BAD"], id="trace-diff"),
    ])
    def test_non_utf8_input_file(self, argv, db_file, program_file, tmp_path, capsys):
        """A UTF-16 file (byte-order mark ``ff fe``) is an input error
        naming the file, not a ``UnicodeDecodeError`` traceback."""
        bad = tmp_path / "utf16.dl"
        bad.write_bytes(b"\xff\xfe" + "p(x) :- e(x, y).".encode("utf-16-le"))
        paths = {"BAD": str(bad), "DB": db_file, "PROGRAM": program_file}
        assert main([paths.get(a, a) for a in argv]) == EXIT_ERROR
        line = self.assert_one_error_line(capsys)
        assert "is not UTF-8" in line and str(bad) in line

    def test_mistyped_trace_field(self, db_file, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert main(["query", db_file, "exists y e(x, y)", "--trace", str(trace)]) == EXIT_OK
        document = json.loads(trace.read_text(encoding="utf-8"))
        document["spans"][0]["start"] = "soon"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(document), encoding="utf-8")
        capsys.readouterr()
        assert main(["trace", "analyze", str(bad)]) == EXIT_ERROR
        self.assert_one_error_line(capsys)


class TestExitUsage:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == EXIT_USAGE
        capsys.readouterr()

    def test_missing_required_argument(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["query"])
        assert err.value.code == EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        pytest.param(["query", "DB", "e(x, y)", "--parallel", "--workers", "0"],
                     id="workers"),
        pytest.param(["datalog", "DB", "PROGRAM", "--parallel", "--shard-timeout", "-1"],
                     id="shard-timeout"),
        pytest.param(["explain", "DB", "PROGRAM", "--parallel", "--shard-retries", "-1"],
                     id="shard-retries"),
        pytest.param(["query", "DB", "e(x, y)", "--timeout", "-1"], id="timeout"),
        pytest.param(["datalog", "DB", "PROGRAM", "--max-tuples", "-1"], id="max-tuples"),
        pytest.param(["explain", "DB", "e(x, y)", "--max-depth", "-1"], id="max-depth"),
        pytest.param(["datalog", "DB", "PROGRAM", "--max-rounds", "-1"], id="max-rounds"),
        pytest.param(["trace", "analyze", "TRACE", "--max-path", "-1"], id="max-path"),
    ])
    def test_out_of_range_numeric_flag(self, argv, db_file, program_file, capsys):
        """Rejected when parsed: no ValueError traceback from the pool,
        no budget that trips at once, and no truncation count past the
        path."""
        paths = {"DB": db_file, "PROGRAM": program_file, "TRACE": "trace.json"}
        with pytest.raises(SystemExit) as err:
            main([paths.get(a, a) for a in argv])
        assert err.value.code == EXIT_USAGE
        stderr = capsys.readouterr().err
        assert f"argument {argv[-2]}: must be" in stderr
        assert "Traceback" not in stderr


class TestExitBudget:
    def test_round_limit(self, db_file, program_file, capsys):
        code = main(["datalog", db_file, program_file, "--max-rounds", "1"])
        assert code == EXIT_BUDGET
        assert "budget exceeded" in capsys.readouterr().err

    def test_explain_budget_abort_still_prints_profile(
        self, db_file, program_file, capsys
    ):
        code = main(["explain", db_file, program_file, "--max-rounds", "1"])
        assert code == EXIT_BUDGET
        captured = capsys.readouterr()
        # the report of the partial run and the guard counters must
        # still surface when the guard trips mid-run
        assert "datalog.naive [error=RoundLimitExceeded]" in captured.out
        assert "guard stats" in captured.out
        assert "budget exceeded" in captured.err

    @staticmethod
    def assert_budget_outcome_kept(err, trace):
        """The run's own budget lines survive, plus one error line that
        names the trace file that could not be written."""
        lines = err.strip().splitlines()
        assert any(line.startswith("budget exceeded:") for line in lines), err
        assert any(line.startswith("diagnostics:") for line in lines), err
        errors = [line for line in lines if line.startswith("error:")]
        assert len(errors) == 1 and trace in errors[0], err
        assert "Traceback" not in err

    def test_datalog_unwritable_trace_keeps_the_budget_outcome(
        self, db_file, program_file, tmp_path, capsys
    ):
        trace = str(tmp_path / "missing-dir" / "t.json")
        code = main(["datalog", db_file, program_file, "--max-rounds", "1",
                     "--trace", trace])
        assert code == EXIT_BUDGET
        self.assert_budget_outcome_kept(capsys.readouterr().err, trace)

    def test_explain_unwritable_trace_keeps_the_budget_outcome(
        self, db_file, program_file, tmp_path, capsys
    ):
        trace = str(tmp_path / "missing-dir" / "t.json")
        code = main(["explain", db_file, program_file, "--max-rounds", "1",
                     "--trace", trace])
        assert code == EXIT_BUDGET
        captured = capsys.readouterr()
        assert "guard stats" in captured.out
        self.assert_budget_outcome_kept(captured.err, trace)

    def test_completed_run_with_unwritable_trace_is_an_error(
        self, db_file, program_file, tmp_path, capsys
    ):
        trace = str(tmp_path / "missing-dir" / "t.json")
        code = main(["datalog", db_file, program_file, "--trace", trace])
        assert code == EXIT_ERROR
        captured = capsys.readouterr()
        assert "fixpoint after" in captured.out
        errors = [line for line in captured.err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1 and trace in errors[0], captured.err
