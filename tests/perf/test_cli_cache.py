"""The ``--no-cache`` escape hatch and kernel statistics in the CLI."""

import re

import pytest

from repro.cli import main
from repro.core.database import Database
from repro.core.relation import Relation
from repro.encoding.standard import encode_database
from repro.perf import kernel_cache, reset_kernel_cache

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


class TestNoCacheFlag:
    def test_query_same_output(self, db_file, capsys):
        assert main(["query", db_file, "exists y e(x, y)"]) == 0
        cached = capsys.readouterr().out
        assert main(["query", db_file, "exists y e(x, y)", "--no-cache"]) == 0
        assert capsys.readouterr().out == cached

    def test_datalog_same_output(self, db_file, program_file, capsys):
        assert main(["datalog", db_file, program_file]) == 0
        cached = capsys.readouterr().out
        assert main(["datalog", db_file, program_file, "--no-cache"]) == 0
        assert capsys.readouterr().out == cached

    def test_explain_works_without_cache(self, db_file, program_file, capsys):
        assert main(["explain", db_file, program_file, "--no-cache"]) == 0
        assert "fixpoint after" in capsys.readouterr().out

    def test_cache_reenabled_after_run(self, db_file, capsys):
        assert main(["query", db_file, "e(x, y)", "--no-cache"]) == 0
        assert kernel_cache().enabled


class TestKernelStats:
    def test_stats_include_kernel_tables(self, db_file, program_file, capsys):
        reset_kernel_cache()
        assert main(["datalog", db_file, program_file, "--stats"]) == 0
        captured = capsys.readouterr()
        assert "kernel cache:" in captured.err
        assert "interning:" in captured.err
        assert "kernel cache:" not in captured.out

    def test_stats_mark_disabled_cache(self, db_file, capsys):
        assert main(["query", db_file, "e(x, y)", "--stats", "--no-cache"]) == 0
        assert "(disabled)" in capsys.readouterr().err

    def test_stats_print_the_operation_memo(self, db_file, program_file, capsys):
        """A naive TC run renames the stored edges again every round, so
        the memo line reports hits."""
        reset_kernel_cache()
        assert main(["datalog", db_file, program_file, "--stats"]) == 0
        memo = _memo_line(capsys.readouterr().err)
        assert "(disabled)" not in memo
        hits, misses = map(int, re.search(r"hits (\d+), misses (\d+)", memo).groups())
        assert hits > 0 and misses > 0

    def test_memo_line_marks_disabled_cache(self, db_file, program_file, capsys):
        assert main(["datalog", db_file, program_file, "--stats", "--no-cache"]) == 0
        assert "(disabled)" in _memo_line(capsys.readouterr().err)

    def test_explain_reports_hit_rate(self, db_file, program_file, capsys):
        reset_kernel_cache()
        assert main(["explain", db_file, program_file]) == 0
        out = capsys.readouterr().out
        assert "kernel cache:" in out
        assert "hit rate" in out


def _memo_line(err: str) -> str:
    """The one operation-memo line of a ``--stats`` kernel table."""
    lines = [line for line in err.splitlines() if line.strip().startswith("memo:")]
    assert len(lines) == 1, err
    return lines[0]
