"""``render_profile`` edge cases: empty tracers, metrics-only runs,
folded sibling spans, and budget-aborted runs with partial guard
counters.  ``tests/obs/test_export.py`` covers the happy path."""

from __future__ import annotations

import pytest

from repro.core.database import Database
from repro.core.relation import Relation
from repro.datalog.engine import evaluate_program
from repro.lang import parse_program
from repro.obs import Tracer, render_profile
from repro.runtime.budget import Budget, BudgetExceeded
from repro.runtime.guard import EvaluationGuard


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
        # no operators ran: no algebra table, no ledger table
        assert "relation algebra" not in text
        assert "cost ledger" not in text


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
        tracer = Tracer()
        with tracer:
            tracer.ledger.add("join", in_tuples=6, out_tuples=2, est_out=9)
        text = render_profile(tracer)
        assert "cost ledger" in text
        assert "est/act" in text


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
        # that operator's ledger postamble — so the budget must be wide
        # enough to let at least one operator complete first
        tracer = Tracer()
        guard = EvaluationGuard(Budget(max_tuples=20))
        with tracer:
            with pytest.raises(BudgetExceeded):
                evaluate_program(_tc(), _db(), guard=guard)
        assert not tracer.ledger.is_empty()
        text = render_profile(tracer, guard)
        assert "cost ledger" in text
