"""Observability: evaluation tracing, metrics, and the run report.

The complexity results this repo reproduces (AC⁰/NC data complexity,
Datalog¬ = PTIME) are claims about *where the work goes* — QE step
counts, relation representation sizes, rounds to fixpoint.  This
package makes those quantities visible on every evaluation path
without changing any engine signature.  A run has one record, the
``repro.trace/1`` document: spans, events, metrics and the guard's
counters, written by ``--trace`` also when a budget aborts the run.
The modules:

* :mod:`repro.obs.trace` — :class:`Tracer` and the ambient
  :func:`span` API (ContextVar collection mirroring
  :func:`repro.runtime.guard.active_guard`; a single context-variable
  read on the disabled path);
* :mod:`repro.obs.metrics` — counters + histograms for QE
  eliminations, per-operator relation sizes in/out, fixpoint rounds
  and delta sizes, cell-decomposition counts;
* :mod:`repro.obs.export` — structured JSON trace documents
  (``repro.trace/1``), validation, and round-trip loading;
* :mod:`repro.obs.stitch` — cross-process trace stitching: worker-side
  telemetry snapshots (``repro.worker-telemetry/1``) grafted into the
  parent tracer at shard-harvest time, so the trace sees inside the
  worker pool;
* :mod:`repro.obs.analyze` — the run report of one trace document
  (:func:`render_report`: critical path, self-time hotspots and
  phases, the per-operator table, QE, fixpoint rounds, latency
  quantiles, memory attribution, the kernel cache line and the guard
  table), which ``repro explain`` prints of its own trace and ``repro
  trace analyze`` of a saved one;
* :mod:`repro.obs.flame` — collapsed-stack and speedscope flame-graph
  export (``repro trace flame``);
* :mod:`repro.obs.diff` — structural trace diffing attributing a
  latency delta to named operators (``repro.trace-diff/1``; the
  ``repro trace diff`` subcommand);
* :mod:`repro.obs.memory` — opt-in per-span memory attribution
  (``--memory``): cheap RSS-based by default, exact tracemalloc on
  request, flowing into span attrs.

Typical use::

    from repro.obs import Tracer, render_report, trace_document

    tracer = Tracer()
    with tracer:
        result = evaluate(formula, db)
    print(render_report(trace_document(tracer)))

The disabled-path overhead (instrumentation present, no tracer active)
is measured by ``benchmarks/bench_e14_trace_overhead.py``, next to
E13's budget-guard gate: it prints a 5% target and asserts that the
worst operator stays below 1.5x of its uninstrumented baseline.
"""

from repro.obs.analyze import (
    analyze_trace,
    critical_path,
    fixpoint_rounds,
    operator_hotspots,
    phase_totals,
    qe_totals,
    relation_algebra,
    render_report,
    span_self_seconds,
)
from repro.obs.diff import (
    TRACE_DIFF_SCHEMA,
    diff_traces,
    load_trace_diff,
    render_trace_diff,
    validate_trace_diff,
    write_trace_diff,
)
from repro.obs.export import (
    TRACE_SCHEMA,
    load_trace,
    trace_document,
    validate_trace,
    write_trace,
)
from repro.obs.flame import (
    SPEEDSCOPE_SCHEMA,
    collapsed_stacks,
    speedscope_document,
    validate_speedscope,
    write_flame,
)
from repro.obs.memory import MemoryProfiler, memory_summary
from repro.obs.metrics import Histogram, Metrics
from repro.obs.stitch import (
    WORKER_TELEMETRY_SCHEMA,
    snapshot_telemetry,
    stitch_telemetry,
)
from repro.obs.trace import SpanRecord, Tracer, active_tracer, event, span

__all__ = [
    "SPEEDSCOPE_SCHEMA",
    "TRACE_DIFF_SCHEMA",
    "TRACE_SCHEMA",
    "WORKER_TELEMETRY_SCHEMA",
    "Histogram",
    "MemoryProfiler",
    "Metrics",
    "SpanRecord",
    "Tracer",
    "active_tracer",
    "analyze_trace",
    "collapsed_stacks",
    "critical_path",
    "diff_traces",
    "event",
    "fixpoint_rounds",
    "load_trace",
    "load_trace_diff",
    "memory_summary",
    "operator_hotspots",
    "phase_totals",
    "qe_totals",
    "relation_algebra",
    "render_report",
    "render_trace_diff",
    "snapshot_telemetry",
    "span",
    "span_self_seconds",
    "speedscope_document",
    "stitch_telemetry",
    "trace_document",
    "validate_speedscope",
    "validate_trace",
    "validate_trace_diff",
    "write_flame",
    "write_trace",
    "write_trace_diff",
]
