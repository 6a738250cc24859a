"""End-to-end tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.core.atoms import le
from repro.core.database import Database
from repro.core.relation import Relation
from repro.core.theory import DENSE_ORDER
from repro.encoding.standard import encode_database


@pytest.fixture
def db_file(tmp_path):
    db = Database()
    db["T"] = Relation.from_atoms(
        ("x", "y"), [[le("x", "y"), le(0, "x"), le("y", 10)]], DENSE_ORDER
    )
    db["e"] = Relation.from_points(("x", "y"), [(1, 2), (2, 3)])
    path = tmp_path / "db.cdb"
    path.write_text(encode_database(db), encoding="utf-8")
    return str(path)


class TestInfo:
    def test_lists_relations(self, db_file, capsys):
        assert main(["info", db_file]) == 0
        out = capsys.readouterr().out
        assert "T/2" in out
        assert "e/2" in out

    def test_missing_file(self, capsys):
        assert main(["info", "/nonexistent.cdb"]) == 1
        assert "error" in capsys.readouterr().err


class TestQuery:
    def test_unary_result_as_intervals(self, db_file, capsys):
        assert main(["query", db_file, "exists y (T(x, y) and y < 5)"]) == 0
        out = capsys.readouterr().out
        assert "[0, 5)" in out

    def test_boolean_result(self, db_file, capsys):
        assert main(["query", db_file, "exists x, y T(x, y)"]) == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_false_sentence(self, db_file, capsys):
        assert main(["query", db_file, "exists x (T(x, x) and x > 100)"]) == 0
        assert capsys.readouterr().out.strip() == "false"

    def test_raw_output(self, db_file, capsys):
        assert main(["query", db_file, "--raw", "T(x, x)"]) == 0
        assert "(x)" in capsys.readouterr().out

    def test_parse_error_reported(self, db_file, capsys):
        assert main(["query", db_file, "exists ("]) == 1
        assert "error" in capsys.readouterr().err


class TestDatalog:
    def test_program_run(self, db_file, tmp_path, capsys):
        program = tmp_path / "tc.dl"
        program.write_text(
            "tc(x, y) :- e(x, y).\ntc(x, z) :- tc(x, y), e(y, z).\n",
            encoding="utf-8",
        )
        assert main(["datalog", db_file, str(program), "--show", "tc"]) == 0
        out = capsys.readouterr().out
        assert "fixpoint" in out
        assert "-- tc" in out

    def test_unknown_edb_reported(self, db_file, tmp_path, capsys):
        program = tmp_path / "bad.dl"
        program.write_text("h(x) :- nothere(x).\n", encoding="utf-8")
        assert main(["datalog", db_file, str(program)]) == 1


class TestReencode:
    def test_roundtrip_idempotent(self, db_file, capsys):
        assert main(["reencode", db_file]) == 0
        first = capsys.readouterr().out
        from repro.encoding.standard import decode_database

        again = encode_database(decode_database(first))
        assert again == first


class TestExplain:
    def test_plan_dump(self, db_file, capsys):
        assert main(["plan", db_file, "exists y (T(x, y) and y < 5)"]) == 0
        out = capsys.readouterr().out
        assert "Project" in out
        assert "Scan T" in out
