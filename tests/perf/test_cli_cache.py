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
    """The report's kernel cache line: what ``explain`` prints and
    ``trace analyze`` reads back from the trace."""

    def test_stats_include_kernel_tables(
        self, db_file, program_file, tmp_path, capsys
    ):
        reset_kernel_cache()
        trace = str(tmp_path / "trace.json")
        assert main(["datalog", db_file, program_file, "--trace", trace]) == 0
        assert "kernel cache:" not in capsys.readouterr().out
        assert main(["trace", "analyze", trace]) == 0
        line = _kernel_line(capsys.readouterr().out)
        assert re.search(r"\d+ interned tuple reuse\(s\)", line)

    def test_stats_mark_disabled_cache(self, db_file, capsys):
        """A run that bypassed the cache made no lookup: no kernel line."""
        assert main(["explain", db_file, "e(x, y)", "--no-cache"]) == 0
        assert "kernel cache:" not in capsys.readouterr().out

    def test_stats_print_the_operation_memo(self, db_file, program_file, capsys):
        """A naive TC run renames the stored edges again every round, so
        the memo counts report hits."""
        reset_kernel_cache()
        assert main(["explain", db_file, program_file]) == 0
        memo = _kernel_line(capsys.readouterr().out)
        hits, misses = map(
            int, re.search(r"memo (\d+) hit\(s\) / (\d+) miss", memo).groups()
        )
        assert hits > 0 and misses > 0

    def test_memo_line_marks_disabled_cache(self, db_file, program_file, capsys):
        assert main(["explain", db_file, program_file, "--no-cache"]) == 0
        assert "memo" not in capsys.readouterr().out

    def test_explain_reports_hit_rate(self, db_file, program_file, capsys):
        reset_kernel_cache()
        assert main(["explain", db_file, program_file]) == 0
        out = capsys.readouterr().out
        assert "kernel cache:" in out
        assert "hit rate" in out


def _kernel_line(out: str) -> str:
    """The one kernel cache line of a report."""
    lines = [line for line in out.splitlines() if line.startswith("kernel cache:")]
    assert len(lines) == 1, out
    return lines[0]
