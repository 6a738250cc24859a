"""``render_profile`` edge cases: empty tracers, metrics-only runs,
the per-operator table, folded sibling spans, and budget-aborted runs
with partial guard counters.  ``tests/obs/test_export.py`` covers the
happy path."""

from __future__ import annotations

import re

import pytest

from repro.core.database import Database
from repro.core.evaluator import evaluate
from repro.core.relation import Relation
from repro.datalog.engine import evaluate_program
from repro.datalog.seminaive import evaluate_seminaive
from repro.lang import parse_formula, parse_program
from repro.obs import Tracer, phase_breakdown, render_profile
from repro.runtime.budget import Budget, BudgetExceeded
from repro.runtime.guard import EvaluationGuard
from repro.workloads.generators import path_graph


def _db(n=8):
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Database({"edge": Relation.from_points(("x", "y"), edges)})


def _tc():
    return parse_program(
        "tc(x, y) :- edge(x, y).\ntc(x, z) :- tc(x, y), edge(y, z).\n"
    )


class TestEmptyTracer:
    def test_never_activated_tracer_renders(self):
        text = render_profile(Tracer())
        assert "evaluation profile" in text
        assert "total 0.0" in text

    def test_activated_but_idle_tracer_renders(self):
        tracer = Tracer()
        with tracer:
            pass
        text = render_profile(tracer)
        assert "evaluation profile" in text
        # no operators ran: no operator table
        assert "relation algebra" not in text


class TestMetricsOnly:
    def test_counters_without_spans_render(self):
        # engines can record metrics through an active tracer without
        # opening any span (e.g. a future sampling profiler); the span
        # tree is empty but the tables must still appear
        tracer = Tracer()
        with tracer:
            tracer.metrics.count("relation.join.calls", 2)
            tracer.metrics.observe("relation.join.in_tuples", 10)
            tracer.metrics.observe("relation.join.out_tuples", 4)
            tracer.metrics.observe("relation.join.seconds", 0.25)
            tracer.metrics.count("qe.eliminated_vars", 3)
        text = render_profile(tracer)
        assert "relation algebra" in text
        assert "join" in text
        assert "3 variable(s) eliminated" in text
        assert not tracer.spans

    def test_memo_served_run_keeps_its_kernel_line(self):
        """A rename the operation memo serves entirely makes no kernel
        cache lookup; the profile still reports the kernel line."""
        relation = _db()["edge"]
        relation.rename({"x": "a", "y": "b"})  # fills the memo
        tracer = Tracer()
        with tracer:
            relation.rename({"x": "a", "y": "b"})
        assert tracer.metrics.counter("kernel.cache.hits") == 0
        assert tracer.metrics.counter("kernel.cache.misses") == 0
        assert tracer.metrics.counter("kernel.memo.hits") == len(relation)
        text = render_profile(tracer)
        assert "kernel cache: 0 hit(s), 0 miss(es)" in text
        assert f"memo {len(relation)} hit(s) / 0 miss(es)" in text

    def test_ledger_without_spans_renders(self):
        # an algebra call outside any span still gets its operator row
        tracer = Tracer()
        with tracer:
            _db()["edge"].simplify()
        assert not tracer.spans
        rows = _operator_rows(render_profile(tracer))
        assert rows["absorb"][:3] == ["1", "8", "8"]


def _operator_rows(text):
    """The printed operator table as ``{operator: [cells after it]}``."""
    lines = text.splitlines()
    start = lines.index("relation algebra")
    assert lines[start + 1].split() == [
        "operator", "calls", "tuples", "in", "tuples", "out", "max", "out",
        "seconds", "parallel",
    ]
    rows = {}
    for line in lines[start + 2:]:
        if not line.startswith("  "):
            break
        operator, *cells = line.split()
        rows[operator] = cells
    return rows


class TestOperatorTable:
    def test_naive_tc_has_an_absorb_row_and_runs_serially(self):
        tracer = Tracer()
        with tracer:
            evaluate_program(_tc(), _db())
        rows = _operator_rows(render_profile(tracer))
        assert list(rows) == ["join", "project", "absorb"]
        calls = tracer.metrics.counter("relation.absorb.calls")
        assert calls and rows["absorb"][0] == str(calls)
        # no pool was active: every operator ran serially
        assert [cells[-1] for cells in rows.values()] == ["serial"] * 3

    def test_parallel_column_reads_the_dispatch_counters(self):
        tracer = Tracer()
        with tracer:
            tracer.metrics.count("relation.join.calls", 4)
            tracer.metrics.count("parallel.join.calls", 3)
            tracer.metrics.count("relation.project.calls", 2)
        rows = _operator_rows(render_profile(tracer))
        assert rows["join"][-1] == "3/4"
        assert rows["project"][-1] == "serial"


class TestQuantifierEliminationLine:
    """Every projection that eliminates a column counts one call, so
    the line never reads 0 calls next to eliminated variables."""

    @staticmethod
    def _qe_line(text):
        [line] = [l for l in text.splitlines() if l.startswith("quantifier elimination:")]
        calls, eliminated = (int(s) for s in re.findall(r"(\d+) (?:call|variable)", line))
        return calls, eliminated

    @pytest.mark.parametrize("engine", ["naive", "seminaive"])
    def test_tc_counts_its_projections(self, engine):
        run = evaluate_program if engine == "naive" else evaluate_seminaive
        tracer = Tracer()
        with tracer:
            run(_tc(), Database({"edge": path_graph(6)["E"]}))
        calls, eliminated = self._qe_line(render_profile(tracer))
        assert calls == tracer.metrics.counter("relation.project.calls") > 0
        assert eliminated >= calls
        assert phase_breakdown(tracer)["qe"] == {
            "calls": calls, "eliminated_vars": eliminated,
        }

    def test_fo_query_counts_its_projection(self):
        tracer = Tracer()
        with tracer:
            evaluate(parse_formula("exists y (edge(x, y) and edge(y, z))"), _db())
        assert self._qe_line(render_profile(tracer))[0] > 0


class TestFoldedSiblings:
    def test_repeated_childless_leaves_fold_into_one_line(self):
        tracer = Tracer()
        with tracer:
            with tracer.span("engine"):
                for _ in range(7):
                    with tracer.span("fo.evaluate"):
                        pass
        text = render_profile(tracer)
        assert "fo.evaluate ×7" in text
        # folded means the individual lines are gone
        assert text.count("fo.evaluate") == 1

    def test_single_leaf_is_not_folded(self):
        tracer = Tracer()
        with tracer:
            with tracer.span("engine"):
                with tracer.span("fo.evaluate"):
                    pass
        text = render_profile(tracer)
        assert "fo.evaluate" in text
        assert "×" not in text

    def test_round_spans_never_fold(self):
        # round spans carry per-round attrs (delta sizes) — folding
        # them would erase exactly what the profile exists to show
        tracer = Tracer()
        with tracer:
            with tracer.span("engine"):
                for i in range(3):
                    with tracer.span("naive.round", round=i, delta_tuples=i):
                        pass
        text = render_profile(tracer)
        assert "naive.round #0" in text
        assert "naive.round #2" in text


class TestBudgetAborted:
    def test_partial_guard_counters_render_after_abort(self):
        tracer = Tracer()
        guard = EvaluationGuard(Budget(max_tuples=5))
        with tracer:
            with pytest.raises(BudgetExceeded):
                evaluate_program(_tc(), _db(), guard=guard)
        text = render_profile(tracer, guard)
        # the work done before the trip is all present
        assert "evaluation profile" in text
        assert "guard stats" in text
        assert "tuples 5" in text or "tuples" in text
        stats = guard.stats()
        assert stats["tuples_materialized"] >= 5
        assert "relation.join" in text or "relation algebra" in text

    def test_aborted_run_keeps_partial_ledger(self):
        # the guard trips at the charge *inside* an operator — before
        # that operator records its output — so the budget must be
        # wide enough to let at least one operator complete first
        tracer = Tracer()
        guard = EvaluationGuard(Budget(max_tuples=20))
        with tracer:
            with pytest.raises(BudgetExceeded):
                evaluate_program(_tc(), _db(), guard=guard)
        rows = _operator_rows(render_profile(tracer, guard))
        assert "join" in rows and "absorb" in rows
        assert tracer.metrics.histogram("relation.join.out_tuples").count
