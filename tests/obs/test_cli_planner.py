"""The planner's CLI surface: ``--optimize`` on query/datalog/explain,
the worker pool that ``--parallel`` activates around planned and
unplanned ``explain`` runs, and ``repro plan``."""

from __future__ import annotations

import contextlib
import io
import re

import pytest

from repro.core.database import Database
from repro.core.relation import Relation
from repro.encoding.standard import encode_database


@pytest.fixture()
def workload(tmp_path):
    n = 12
    edges = [(i, (i + 1) % n) for i in range(n)]
    db = Database({"edge": Relation.from_points(("x", "y"), edges)})
    db_path = tmp_path / "db.cdb"
    db_path.write_text(encode_database(db))
    program = tmp_path / "tc.dl"
    program.write_text(
        "tc(x, y) :- edge(x, y).\ntc(x, z) :- tc(x, y), edge(y, z).\n"
    )
    return str(db_path), str(program)


def _run_cli(argv):
    from repro.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


QUERY = "exists y (edge(x, y) and edge(y, z))"

ENGINES = ("naive", "seminaive", "stratified")


class TestOptimizeFlag:
    def test_query_modes_agree(self, workload):
        db, _ = workload
        outputs = {}
        for mode in ("none", "heuristic"):
            code, out, _ = _run_cli(
                ["query", db, QUERY, "--optimize", mode]
            )
            assert code == 0
            outputs[mode] = out
        assert outputs["none"] == outputs["heuristic"]

    @pytest.mark.parametrize("mode", ["none", "heuristic"])
    def test_parallel_matches_serial(self, workload, mode):
        db, _ = workload
        plain_code, plain_out, _ = _run_cli(["query", db, QUERY])
        code, out, err = _run_cli(
            ["query", db, QUERY, "--optimize", mode, "--parallel"]
        )
        assert code == 0
        assert "serially" not in err  # the auto-degrade warning is gone
        assert sorted(out.splitlines()) == sorted(plain_out.splitlines())

    def test_datalog_planned_matches_unplanned(self, workload):
        db, program = workload
        base_code, base_out, _ = _run_cli(["datalog", db, program])
        code, out, _ = _run_cli(
            ["datalog", db, program, "--optimize", "heuristic"]
        )
        assert base_code == code == 0
        assert sorted(out.splitlines()) == sorted(base_out.splitlines())

    def test_explain_accepts_optimize(self, workload):
        db, _ = workload
        code, out, _ = _run_cli(
            ["explain", db, QUERY, "--optimize", "heuristic"]
        )
        assert code == 0
        # plan provenance: the planning step shows up in the profile
        assert "planner.plan" in out
        assert "result:" in out

    @pytest.mark.parametrize("argv", [
        ["query", "DB", QUERY, "--optimize", "cost"],
        ["plan", "DB", QUERY, "--parallel"],
        ["explain", "DB", "PROG", "--out", "p.json"],
    ], ids=["optimize-cost", "plan-parallel", "explain-out"])
    def test_deleted_options_are_usage_errors(self, workload, argv, capsys):
        db, program = workload
        argv = [{"DB": db, "PROG": program}.get(arg, arg) for arg in argv]
        with pytest.raises(SystemExit) as exit_info:
            _run_cli(argv)
        assert exit_info.value.code == 2

    def test_no_cost_model_surface_is_left(self, capsys):
        # the model fitter is gone from the subcommands (any other word
        # is a usage error, exit 2), and no option mentions a cost model
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["--help"])
        listed = re.search(r"\{([a-z,-]+)\}", capsys.readouterr().out).group(1)
        assert listed.split(",") == [
            "info", "query", "datalog", "explain", "plan", "reencode",
            "trace", "bench-watch",
        ]
        for command in ("query", "datalog", "explain", "plan"):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            options = re.findall(r"--[a-z-]+", capsys.readouterr().out)
            assert not [o for o in options if "cost" in o], command


def _parallel_column(out):
    """The ``parallel`` column of every row of the printed operator
    table."""
    lines = out.splitlines()
    start = lines.index("relation algebra")
    column = []
    for line in lines[start + 2:]:
        if not line.startswith("  "):
            break
        column.append(line.split()[-1])
    return column


class TestExplainPool:
    @pytest.fixture()
    def path12(self, tmp_path):
        db = Database({"edge": Relation.from_points(
            ("x", "y"), [(i, i + 1) for i in range(11)]
        )})
        db_path = tmp_path / "path12.cdb"
        db_path.write_text(encode_database(db))
        program = tmp_path / "tc.dl"
        program.write_text(
            "tc(x, y) :- edge(x, y).\ntc(x, z) :- tc(x, y), edge(y, z).\n"
        )
        return str(db_path), str(program)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_unplanned_run_uses_the_pool(self, path12, engine):
        # --optimize none builds no planner: the pool is activated
        # around the whole run, so the kernels shard on it
        db, program = path12
        code, out, err = _run_cli(
            ["explain", db, program, "--engine", engine, "--optimize", "none",
             "--parallel", "--workers", "2"]
        )
        assert code == 0
        column = _parallel_column(out)
        assert column
        assert any(cell != "serial" for cell in column)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_planned_run_uses_the_pool(self, path12, engine):
        # a planner owns no pool: --parallel activates it around the
        # planned run too, so the planned operators shard on it
        db, program = path12
        code, out, err = _run_cli(
            ["explain", db, program, "--engine", engine,
             "--optimize", "heuristic", "--parallel", "--workers", "2"]
        )
        assert code == 0
        assert "planner.plan" in out
        column = _parallel_column(out)
        assert column
        assert any(cell != "serial" for cell in column)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_optimize_plans_every_engine(self, path12, engine):
        db, program = path12
        _, plain_out, _ = _run_cli(["explain", db, program, "--engine", engine])
        code, out, err = _run_cli(
            ["explain", db, program, "--engine", engine, "--optimize", "heuristic"]
        )
        assert code == 0
        assert "planner.plan" in out
        assert "planner.plan" not in plain_out
        assert "warning" not in err
        assert out.splitlines()[0] == plain_out.splitlines()[0]  # the result line


class TestPlanCommand:
    def test_plan_formula_lists_nodes_and_estimates(self, workload):
        db, _ = workload
        code, out, _ = _run_cli(["plan", db, QUERY])
        assert code == 0
        assert "est_rows" in out
        assert "est_cost" not in out and "modeled" not in out
        assert "serial" not in out and "parallel" not in out
        # one tree, each row labelled with its node's own text
        labels = [line.split("est_rows")[0].strip()
                  for line in out.splitlines() if "est_rows" in line]
        assert labels == [
            "Project ('x', 'z')", "Join", "Scan edge(x, y)", "Scan edge(y, z)",
        ]

    def test_plan_program_prints_one_plan_per_rule(self, workload):
        db, program = workload
        code, out, _ = _run_cli(["plan", db, program])
        assert code == 0
        assert "-- rule 1:" in out and "-- rule 2:" in out
        assert out.count("plan (estimated rows") == 2
