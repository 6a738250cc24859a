"""The planner's CLI surface: ``--optimize`` on query/datalog/explain,
who owns the worker pool on ``explain``, ``repro plan``, and
``repro explain --out`` followed by ``repro calibrate``."""

from __future__ import annotations

import contextlib
import io
import json

import pytest

from repro.core.costmodel import COST_MODEL_SCHEMA, load_cost_model
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
        for mode in ("none", "heuristic", "cost"):
            code, out, _ = _run_cli(
                ["query", db, QUERY, "--optimize", mode]
            )
            assert code == 0
            outputs[mode] = out
        assert outputs["none"] == outputs["heuristic"] == outputs["cost"]

    def test_parallel_implies_cost_mode(self, workload):
        db, _ = workload
        plain_code, plain_out, _ = _run_cli(["query", db, QUERY])
        code, out, err = _run_cli(["query", db, QUERY, "--parallel"])
        assert code == 0
        assert "serially" not in err  # the auto-degrade warning is gone
        assert sorted(out.splitlines()) == sorted(plain_out.splitlines())

    def test_datalog_planned_matches_unplanned(self, workload):
        db, program = workload
        base_code, base_out, _ = _run_cli(["datalog", db, program])
        code, out, _ = _run_cli(["datalog", db, program, "--optimize", "cost"])
        assert base_code == code == 0
        assert sorted(out.splitlines()) == sorted(base_out.splitlines())

    def test_explain_accepts_optimize(self, workload):
        db, _ = workload
        code, out, _ = _run_cli(
            ["explain", db, QUERY, "--optimize", "cost"]
        )
        assert code == 0
        # plan provenance: the planning step shows up in the profile
        assert "planner.plan" in out
        assert "result:" in out

    def test_bad_cost_model_file_is_a_clean_error(self, workload, tmp_path):
        db, _ = workload
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, _, err = _run_cli(
            ["query", db, QUERY, "--optimize", "cost",
             "--cost-model", str(bad)]
        )
        assert code != 0
        assert "not JSON" in err


def _ledger_parallel_column(out):
    """The ``parallel`` column of every row of the printed cost ledger."""
    lines = out.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("cost ledger"))
    column = []
    for line in lines[start + 2:]:
        if not line.startswith("  ") or line.split()[0] == "memory":
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
        column = _ledger_parallel_column(out)
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
    def test_plan_formula_lists_nodes_and_verdicts(self, workload):
        db, _ = workload
        code, out, _ = _run_cli(["plan", db, QUERY])
        assert code == 0
        assert "est_rows" in out and "est_cost" in out
        assert "[serial]" in out
        assert "total modeled cost" in out
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
        assert out.count("total modeled cost") == 2

    def test_plan_with_parallel_capability(self, workload):
        db, _ = workload
        code, out, _ = _run_cli(
            ["plan", db, QUERY, "--parallel", "--workers", "4"]
        )
        assert code == 0
        assert "pool capacity: 4 worker(s)" in out

    def test_plan_with_fitted_model(self, workload, tmp_path):
        db, program = workload
        profile = tmp_path / "profile.json"
        model = tmp_path / "model.json"
        assert _run_cli(["explain", db, program, "--out", str(profile)])[0] == 0
        assert _run_cli(
            ["calibrate", str(profile), "--out", str(model)]
        )[0] == 0
        code, out, _ = _run_cli(
            ["plan", db, QUERY, "--cost-model", str(model)]
        )
        assert code == 0
        assert "cost model: fit" in out


class TestCalibrate:
    def test_round_trip_from_profile_documents(self, workload, tmp_path):
        db, program = workload
        profile = tmp_path / "profile.json"
        code, _, _ = _run_cli(["explain", db, program, "--out", str(profile)])
        assert code == 0
        model_path = tmp_path / "model.json"
        code, out, _ = _run_cli(
            ["calibrate", str(profile), "--out", str(model_path)]
        )
        assert code == 0
        assert "fitted cost model" in out
        assert "join" in out
        document = json.loads(model_path.read_text())
        assert document["schema"] == COST_MODEL_SCHEMA
        model = load_cost_model(str(model_path))
        assert model.records_used > 0

    def test_corrupt_profile_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "wrong"}))
        code, _, err = _run_cli(["calibrate", str(bad)])
        assert code != 0
        assert "schema" in err


class TestProfileFit:
    def test_fit_writes_a_loadable_model(self, workload, tmp_path):
        db, program = workload
        profile = tmp_path / "profile.json"
        model_path = tmp_path / "model.json"
        assert _run_cli(["explain", db, program, "--out", str(profile)])[0] == 0
        code, out, _ = _run_cli(
            ["calibrate", str(profile), "--out", str(model_path)]
        )
        assert code == 0
        assert "fitted cost model" in out
        model = load_cost_model(str(model_path))
        assert model.source == "fit"
        assert model.records_used > 0

    def test_profile_documents_carry_estimator_kinds(self, workload, tmp_path):
        db, program = workload
        profile = tmp_path / "profile.json"
        assert _run_cli(["explain", db, program, "--out", str(profile)])[0] == 0
        document = json.loads(profile.read_text())
        kinds = {r.get("estimator") for r in document["records"]}
        assert any(k and "." in k for k in kinds)
