"""The run report's sections, rendered from a trace document: empty
tracers, metrics-only runs, the per-operator table, the QE and
fixpoint lines, latency quantiles, memory attribution, repeated
sibling spans, and budget-aborted runs with partial guard counters.
``tests/obs/test_export.py`` covers the happy path."""

from __future__ import annotations

import json
import re

import pytest

from repro.core.database import Database
from repro.core.evaluator import evaluate
from repro.core.relation import Relation
from repro.datalog.engine import evaluate_program
from repro.datalog.seminaive import evaluate_seminaive
from repro.lang import parse_formula, parse_program
from repro.obs import MemoryProfiler, Tracer, qe_totals, render_report, trace_document
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


def _report(tracer, guard=None):
    return render_report(trace_document(tracer, guard))


class TestEmptyTracer:
    def test_never_activated_tracer_renders(self):
        text = _report(Tracer())
        assert text.startswith("trace analysis: 0 span(s)")
        assert "total 0.0" in text

    def test_activated_but_idle_tracer_renders(self):
        tracer = Tracer()
        with tracer:
            pass
        text = _report(tracer)
        assert text.startswith("trace analysis: 0 span(s)")
        # no operators ran: no operator table
        assert "relation algebra" not in text

    def test_dropped_spans_are_counted_in_the_header(self):
        tracer = Tracer(max_spans=1)
        with tracer:
            for _ in range(3):
                with tracer.span("s"):
                    pass
        header = _report(tracer).splitlines()[0]
        assert header.endswith(", 2 span(s) dropped (max_spans cap)")


class TestMetricsOnly:
    def test_counters_without_spans_render(self):
        # engines can record metrics through an active tracer without
        # opening any span; the critical path is empty but the tables
        # must still appear
        tracer = Tracer()
        with tracer:
            tracer.metrics.count("relation.join.calls", 2)
            tracer.metrics.observe("relation.join.in_tuples", 10)
            tracer.metrics.observe("relation.join.out_tuples", 4)
            tracer.metrics.observe("relation.join.seconds", 0.25)
            tracer.metrics.count("qe.eliminated_vars", 3)
        text = _report(tracer)
        assert "relation algebra" in text
        assert "join" in text
        assert "3 variable(s) eliminated" in text
        assert not tracer.spans

    def test_memo_served_run_keeps_its_kernel_line(self):
        """A rename the operation memo serves entirely makes no kernel
        cache lookup; the report still shows the kernel line."""
        relation = _db()["edge"]
        relation.rename({"x": "a", "y": "b"})  # fills the memo
        tracer = Tracer()
        with tracer:
            relation.rename({"x": "a", "y": "b"})
        assert tracer.metrics.counter("kernel.cache.hits") == 0
        assert tracer.metrics.counter("kernel.cache.misses") == 0
        assert tracer.metrics.counter("kernel.memo.hits") == len(relation)
        text = _report(tracer)
        assert "kernel cache: 0 hit(s), 0 miss(es)" in text
        assert f"memo {len(relation)} hit(s) / 0 miss(es)" in text

    def test_ledger_without_spans_renders(self):
        # an algebra call outside any span still gets its operator row
        tracer = Tracer()
        with tracer:
            _db()["edge"].simplify()
        assert not tracer.spans
        rows = _operator_rows(_report(tracer))
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
        rows = _operator_rows(_report(tracer))
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
        rows = _operator_rows(_report(tracer))
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
        calls, eliminated = self._qe_line(_report(tracer))
        assert calls == tracer.metrics.counter("relation.project.calls") > 0
        assert eliminated >= calls
        assert qe_totals(trace_document(tracer)) == {
            "calls": calls, "eliminated_vars": eliminated,
        }

    def test_fo_query_counts_its_projection(self):
        tracer = Tracer()
        with tracer:
            evaluate(parse_formula("exists y (edge(x, y) and edge(y, z))"), _db())
        assert self._qe_line(_report(tracer))[0] > 0


def _hotspot_calls(text):
    """The hotspot table as ``{span name: calls}``."""
    lines = text.splitlines()
    start = lines.index("hotspots (self time):")
    rows = {}
    for line in lines[start + 2:]:
        if not line.startswith("  "):
            break
        name, calls, *_ = line.split()
        rows[name] = int(calls)
    return rows


class TestFoldedSiblings:
    """Repeated same-name spans fold into one hotspot row; the
    critical path keeps each span that determined the wall time."""

    def test_repeated_childless_leaves_fold_into_one_line(self):
        tracer = Tracer()
        with tracer:
            with tracer.span("engine"):
                for _ in range(7):
                    with tracer.span("fo.evaluate"):
                        pass
        assert _hotspot_calls(_report(tracer)) == {"engine": 1, "fo.evaluate": 7}

    def test_single_leaf_is_not_folded(self):
        tracer = Tracer()
        with tracer:
            with tracer.span("engine"):
                with tracer.span("fo.evaluate"):
                    pass
        assert _hotspot_calls(_report(tracer)) == {"engine": 1, "fo.evaluate": 1}

    def test_round_spans_never_fold(self):
        # round spans carry per-round attrs (delta sizes) — folding
        # them would erase exactly what the report exists to show
        tracer = Tracer()
        with tracer:
            with tracer.span("engine"):
                for i in range(3):
                    with tracer.span("naive.round", round=i, delta_tuples=i):
                        pass
            tracer.metrics.count("naive.rounds", 3)
        text = _report(tracer)
        assert "  naive: 3 round(s), delta sizes [0, 1, 2]" in text.splitlines()


class TestBudgetAborted:
    def test_partial_guard_counters_render_after_abort(self):
        tracer = Tracer()
        guard = EvaluationGuard(Budget(max_tuples=5))
        with tracer:
            with pytest.raises(BudgetExceeded):
                evaluate_program(_tc(), _db(), guard=guard)
        document = trace_document(tracer, guard)
        text = render_report(document)
        # the work done before the trip is all present, and the guard
        # table prints the document's own counters
        stats = document["guard"]
        assert stats["tuples_materialized"] >= 5
        assert (
            f"guard stats: elapsed {stats['elapsed']:.4f}s, "
            f"ticks {stats['ticks']}, tuples {stats['tuples_materialized']}, "
        ) in text
        assert "datalog.naive [error=TupleLimitExceeded]" in text
        assert "relation algebra" in text

    def test_aborted_run_keeps_partial_ledger(self):
        # the guard trips at the charge *inside* an operator — before
        # that operator records its output — so the budget must be
        # wide enough to let at least one operator complete first
        tracer = Tracer()
        guard = EvaluationGuard(Budget(max_tuples=20))
        with tracer:
            with pytest.raises(BudgetExceeded):
                evaluate_program(_tc(), _db(), guard=guard)
        rows = _operator_rows(_report(tracer, guard))
        assert "join" in rows and "absorb" in rows
        assert tracer.metrics.histogram("relation.join.out_tuples").count


def _block(text, heading):
    """The lines of one report section after its heading."""
    lines = text.splitlines()
    start = lines.index(heading)
    end = lines.index("", start) if "" in lines[start:] else len(lines)
    return lines[start + 1:end]


class TestLatencyQuantiles:
    def test_quantiles_come_from_the_histogram_snapshots(self):
        tracer = Tracer()
        with tracer:
            for seconds in (0.001, 0.002, 0.004, 0.5):
                tracer.metrics.observe("relation.join.seconds", seconds)
            tracer.metrics.observe("relation.join.in_tuples", 3)  # a size
        document = trace_document(tracer)
        h = document["metrics"]["histograms"]["relation.join.seconds"]
        assert _block(render_report(document), "latency quantiles") == [
            f"  relation.join.seconds  p50={h['p50']:.6f} "
            f"p95={h['p95']:.6f} p99={h['p99']:.6f} (n=4)"
        ]


class TestMemoryAttribution:
    def test_memory_table_reads_the_span_attrs(self):
        tracer = Tracer()
        tracer.memory = MemoryProfiler()
        with tracer:
            evaluate_program(_tc(), _db())
        rows = _block(_report(tracer), "memory attribution")
        assert rows[0].split() == [
            "span", "calls", "alloc", "blocks", "alloc", "bytes", "peak", "bytes",
        ]
        calls = {line.split()[0]: int(line.split()[1]) for line in rows[1:]}
        assert calls["datalog.naive"] == 1
        assert calls["datalog.naive.round"] == sum(
            s.name == "datalog.naive.round" for s in tracer.spans
        )

    def test_no_table_without_memory_attrs(self):
        tracer = Tracer()
        with tracer:
            evaluate_program(_tc(), _db())
        assert "memory attribution" not in _report(tracer)


def _reversed_keys(node):
    """``node`` with every dict rebuilt in reverse key order."""
    if isinstance(node, dict):
        return {key: _reversed_keys(node[key]) for key in reversed(list(node))}
    if isinstance(node, list):
        return [_reversed_keys(item) for item in node]
    return node


class TestOneDocumentOneReport:
    def test_report_ignores_dict_insertion_order(self):
        """``write_trace`` sorts keys, so the report of a saved trace
        must not depend on the order the live document built them in."""
        tracer = Tracer()
        tracer.memory = MemoryProfiler()
        guard = EvaluationGuard()
        with tracer:
            evaluate_seminaive(_tc(), _db(), guard=guard)
        document = trace_document(tracer, guard)
        text = render_report(document)
        assert render_report(json.loads(json.dumps(document, sort_keys=True))) == text
        assert render_report(_reversed_keys(document)) == text
        for heading in ("relation algebra", "fixpoint", "latency quantiles",
                        "memory attribution"):
            assert heading in text.splitlines()
        assert "guard stats:" in text and "kernel cache:" in text
