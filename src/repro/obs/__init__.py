"""Observability: evaluation tracing, metrics, and EXPLAIN profiling.

The complexity results this repo reproduces (AC⁰/NC data complexity,
Datalog¬ = PTIME) are claims about *where the work goes* — QE step
counts, relation representation sizes, rounds to fixpoint.  This
package makes those quantities visible on every evaluation path
without changing any engine signature:

* :mod:`repro.obs.trace` — :class:`Tracer` and the ambient
  :func:`span` API (ContextVar collection mirroring
  :func:`repro.runtime.guard.active_guard`; a single context-variable
  read on the disabled path);
* :mod:`repro.obs.metrics` — counters + histograms for QE
  eliminations, per-operator relation sizes in/out, fixpoint rounds
  and delta sizes, cell-decomposition counts;
* :mod:`repro.obs.export` — structured JSON trace documents
  (``repro.trace/1``), validation, and round-trip loading;
* :mod:`repro.obs.profile` — the per-phase cost tree and the
  per-operator table (calls, tuples in and out, seconds, sharded
  calls) behind ``python -m repro.cli explain``, and the profile
  ingestion in ``benchmarks/collect_results.py``;
* :mod:`repro.obs.stitch` — cross-process trace stitching: worker-side
  telemetry snapshots (``repro.worker-telemetry/1``) grafted into the
  parent tracer at shard-harvest time, so traces, stats, and the
  flight recorder see inside the worker pool;
* :mod:`repro.obs.analyze` — critical-path extraction and per-operator
  / per-phase bottleneck aggregation over exported trace documents
  (the ``repro trace analyze`` subcommand);
* :mod:`repro.obs.flame` — collapsed-stack and speedscope flame-graph
  export (``repro trace flame``);
* :mod:`repro.obs.diff` — structural trace diffing attributing a
  latency delta to named operators (``repro.trace-diff/1``; the
  ``repro trace diff`` subcommand and bench-watch regression reports);
* :mod:`repro.obs.memory` — opt-in per-span memory attribution
  (``--memory``): cheap RSS-based by default, exact tracemalloc on
  request, flowing into span attrs.

Typical use::

    from repro.obs import Tracer, render_profile

    tracer = Tracer()
    with tracer:
        result = evaluate(formula, db)
    print(render_profile(tracer))

The disabled-path overhead (instrumentation present, no tracer active)
is measured by ``benchmarks/bench_e14_trace_overhead.py``, next to
E13's budget-guard gate: it prints a 5% target and asserts that the
worst operator stays below 1.5x of its uninstrumented baseline.
"""

from repro.obs.analyze import (
    analyze_trace,
    critical_path,
    operator_hotspots,
    phase_totals,
    render_analysis,
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
    guard_stats_table,
    kernel_stats_table,
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
from repro.obs.flightrec import (
    POSTMORTEM_SCHEMA,
    FlightRecorder,
    configure_flight_recorder,
    flight_recorder,
    last_postmortem,
    load_postmortem,
    validate_postmortem,
)
from repro.obs.history import (
    HISTORY_SCHEMA,
    append_history,
    compare_latest,
    load_history,
    render_watch_report,
    validate_history_record,
)
from repro.obs.log import LOG_SCHEMA, log_event
from repro.obs.memory import MemoryProfiler, memory_summary
from repro.obs.metrics import Histogram, Metrics
from repro.obs.profile import phase_breakdown, render_metrics_summary, render_profile
from repro.obs.sink import (
    LEVELS,
    CollectingSink,
    JsonlSink,
    RingBufferSink,
    Sink,
    prometheus_text,
    write_prometheus,
)
from repro.obs.stitch import (
    WORKER_TELEMETRY_SCHEMA,
    snapshot_telemetry,
    stitch_telemetry,
)
from repro.obs.trace import SpanRecord, Tracer, active_tracer, event, span

__all__ = [
    "HISTORY_SCHEMA",
    "LEVELS",
    "LOG_SCHEMA",
    "POSTMORTEM_SCHEMA",
    "SPEEDSCOPE_SCHEMA",
    "TRACE_DIFF_SCHEMA",
    "TRACE_SCHEMA",
    "WORKER_TELEMETRY_SCHEMA",
    "CollectingSink",
    "FlightRecorder",
    "Histogram",
    "JsonlSink",
    "MemoryProfiler",
    "Metrics",
    "RingBufferSink",
    "Sink",
    "SpanRecord",
    "Tracer",
    "active_tracer",
    "analyze_trace",
    "append_history",
    "collapsed_stacks",
    "compare_latest",
    "configure_flight_recorder",
    "critical_path",
    "diff_traces",
    "event",
    "flight_recorder",
    "guard_stats_table",
    "kernel_stats_table",
    "last_postmortem",
    "load_history",
    "load_postmortem",
    "load_trace",
    "load_trace_diff",
    "log_event",
    "memory_summary",
    "operator_hotspots",
    "phase_breakdown",
    "phase_totals",
    "prometheus_text",
    "render_analysis",
    "render_metrics_summary",
    "render_profile",
    "render_trace_diff",
    "render_watch_report",
    "snapshot_telemetry",
    "span",
    "span_self_seconds",
    "speedscope_document",
    "stitch_telemetry",
    "trace_document",
    "validate_history_record",
    "validate_postmortem",
    "validate_speedscope",
    "validate_trace",
    "validate_trace_diff",
    "write_flame",
    "write_prometheus",
    "write_trace",
]
