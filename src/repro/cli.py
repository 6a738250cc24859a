"""Command-line interface: query constraint databases from the shell.

::

    python -m repro.cli query   DB.cdb  "exists y (T(x, y) and y < 5)"
    python -m repro.cli datalog DB.cdb PROGRAM.dl --show tc
    python -m repro.cli explain DB.cdb PROGRAM.dl
    python -m repro.cli info    DB.cdb

``DB.cdb`` files use the standard encoding of Section 3
(:mod:`repro.encoding.standard`); programs use the Datalog surface
syntax of :mod:`repro.lang`.

Evaluation is resource-governed: ``--timeout``, ``--max-tuples``,
``--max-depth`` and (for Datalog) ``--max-rounds`` bound the run.  A
tripped budget exits with code ``3`` (distinct from ``1`` for ordinary
errors) and prints the structured diagnostics; ``--on-budget=partial``
makes ``datalog`` print the sound partial result instead, tagged with
what was cut.

Evaluation is also *observable*: ``--trace FILE`` writes a structured
JSON trace (schema ``repro.trace/1``), ``--profile`` prints the
per-phase cost tree after the result, ``--stats`` prints the guard's
per-site counters plus the kernel cache/interning statistics, and
``-v``/``-vv`` print metric summaries on stderr.

Two subcommands inspect plans and runs.  ``plan`` plans without
running: one tree per formula or Datalog rule, each node with its
estimated rows (generalized tuples).  ``explain`` runs a query or
program and reports where the work went: the per-phase cost tree, one
per-operator table (calls, tuples in and out, seconds, and how many
calls sharded on a pool) and the guard's counters, also when a budget
aborts the run; ``--trace`` writes the same run as a ``repro.trace/1``
document.  ``--optimize={none,heuristic}`` picks the planning mode on
``query``/``datalog``/``explain``: ``none`` (the default) runs the
direct evaluator, ``heuristic`` the rule-engine rewrites.

Telemetry exports (the sinks of :mod:`repro.obs.sink` and the flight
recorder of :mod:`repro.obs.flightrec`):
``--log-jsonl FILE`` streams every structured log record
(``repro.log/1``) as JSON lines, ``--metrics-out FILE`` writes the
final metrics snapshot in the Prometheus text format, and
``--postmortem-dir DIR`` arms the flight recorder — an aborted run
(budget error, fault, crash inside the guard) leaves a
``repro.postmortem/1`` document there with the last telemetry events
and the partial guard counters.

Trace analysis (the :mod:`repro.obs` analysis toolkit): ``repro trace
analyze TRACE`` prints the critical path and the per-operator /
per-phase bottleneck tables of a saved ``repro.trace/1`` document;
``repro trace flame TRACE`` exports it as a speedscope JSON profile
(or ``--format collapsed`` stack lines); ``repro trace diff BEFORE
AFTER`` structurally diffs two traces of the same workload and
attributes the latency delta to named operators, optionally writing a
``repro.trace-diff/1`` document with ``-o``.

``--memory`` (on ``query``/``datalog``/``explain``) turns
on per-span memory attribution: every traced span gains
``mem_alloc_blocks``/``mem_peak_bytes`` attrs, ``explain`` prints a
per-span ``memory attribution`` table, and ``--parallel`` runs capture
the same attrs inside pool workers.  The default ``rss`` backend is
cheap: E21 prints a 5% target and asserts that its worst workload
stays below 1.25x of the unprofiled traced run; ``--memory-backend
tracemalloc`` adds exact ``mem_alloc_bytes`` at tracemalloc's
documented cost.

``repro bench-watch`` compares the newest ``BENCH_HISTORY.jsonl``
record against the trailing baseline and exits ``4`` on regression;
with ``--trace-before``/``--trace-after`` a regression report also
includes the trace diff naming the operators that slowed down.

Exit codes are uniform across subcommands: ``0`` ok, ``1``
encoding/input error, ``2`` usage error, ``3`` budget exhausted,
``4`` benchmark regression, ``5`` unrecoverable shard failure (see
the README table; asserted by ``tests/obs/test_cli_exit_codes.py``).

``--no-cache`` disables the kernel memo cache and its operation memo
of renames and projections, the tuple intern pool and the
column-rename shortcut (:mod:`repro.perf`) for the run, so every
conjunction goes through the kernel as in the seed — the escape hatch
for timing comparisons and for ruling the fast path out when
debugging.

``--parallel`` (with ``--workers`` and ``--shard-strategy``) activates
a worker pool around the whole run, planned or not: every relation
kernel (join, projection, absorption) whose input reaches the pool's
size floor shards on it (:mod:`repro.parallel`).  Serial evaluation
remains the default and the reference, and results are set-equivalent
either way.  Shard dispatch is fault-tolerant: ``--shard-timeout``
bounds each shard, ``--shard-retries`` caps pool re-dispatches before a
failing shard is quarantined (re-executed serially in-process), and
``--on-shard-failure`` picks the terminal behavior — ``fail`` (exit
``5``, no quarantine), ``serial`` (the default: quarantine, then exit
``5``), or ``partial`` (drop the shard and print the tagged partial
result).  ``plan`` runs nothing, so it takes none of these flags.

Numeric flags are checked when parsed: ``--workers`` and
``bench-watch --window`` must be at least 1, ``--timeout`` and
``--shard-timeout`` positive, ``bench-watch --threshold`` at least 1
(a smaller ratio would flag improvements), and ``--shard-retries``,
``--max-tuples``, ``--max-depth``, ``--max-rounds`` and ``trace
analyze --max-path`` non-negative; anything else is a usage error
(exit ``2``).

When an observation surface is active, ``--parallel`` runs capture
worker-side telemetry and stitch it into the parent trace (spans with
``pid``/``shard``/``attempt`` attributes, worker kernel-cache deltas,
log records), so ``--trace`` / ``--stats`` / ``explain`` see inside
the pool; ``--no-stitch`` turns the capture off for overhead-sensitive
runs (untraced runs never pay for it either way).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import List, Optional

from repro.core.database import Database
from repro.core.evaluator import evaluate
from repro.core.intervals import IntervalSet
from repro.core.relation import Relation
from repro.datalog.engine import evaluate_program
from repro.encoding.standard import decode_database, encode_database, encoding_size
from repro.errors import ReproError, ShardFailedError
from repro.files import read_text
from repro.lang import parse_formula, parse_program
from repro.obs import (
    JsonlSink,
    Tracer,
    compare_latest,
    configure_flight_recorder,
    flight_recorder,
    guard_stats_table,
    kernel_stats_table,
    load_history,
    render_metrics_summary,
    render_profile,
    render_watch_report,
    write_prometheus,
    write_trace,
)
from repro.obs.profile import render_latency_quantiles
from repro.perf import kernel_cache_disabled, kernel_stats
from repro.runtime.budget import Budget, BudgetExceeded
from repro.runtime.guard import EvaluationGuard

__all__ = [
    "main",
    "EXIT_OK",
    "EXIT_ERROR",
    "EXIT_USAGE",
    "EXIT_BUDGET",
    "EXIT_REGRESSION",
    "EXIT_SHARD",
]

#: success
EXIT_OK = 0
#: ordinary failure (parse error, schema error, missing file, ...)
EXIT_ERROR = 1
#: usage error (unknown subcommand, bad flag) — argparse's convention
EXIT_USAGE = 2
#: a resource budget tripped (deadline, tuples, rounds, depth)
EXIT_BUDGET = 3
#: ``bench-watch`` found a benchmark regression beyond the threshold
EXIT_REGRESSION = 4
#: a parallel shard failed every recovery path the policy allows
#: (retries + quarantine) and --on-shard-failure forbids partial results
EXIT_SHARD = 5


def _load(path: str) -> Database:
    return decode_database(read_text(path, "database file"))


def _budget_of(args: argparse.Namespace) -> Optional[Budget]:
    """A Budget from the shared resource flags; None when all are off."""
    budget = Budget(
        deadline_seconds=getattr(args, "timeout", None),
        max_tuples=getattr(args, "max_tuples", None),
        max_depth=getattr(args, "max_depth", None),
    )
    return None if budget.is_unlimited() else budget


def _bounded(kind, low, strict: bool = False):
    """An argparse ``type``: a ``kind`` (int or float) at least ``low``,
    or above it when ``strict``; anything else is a usage error."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}"
            ) from None
        # written so that a float NaN fails both comparisons
        if not (value > low if strict else value >= low):
            raise argparse.ArgumentTypeError(
                f"must be {'>' if strict else '>='} {low}, got {text}"
            )
        return value

    return parse


#: a worker count or a history window
_POSITIVE_INT = _bounded(int, 1)
#: a cap on tuples, depth, rounds, retries or printed path segments
_COUNT = _bounded(int, 0)
#: a deadline
_SECONDS = _bounded(float, 0, strict=True)
#: a regression ratio: below 1 it would flag improvements
_RATIO = _bounded(float, 1.0)


def _add_budget_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--timeout", type=_SECONDS, default=None, metavar="SECONDS",
        help="wall-clock deadline for evaluation",
    )
    parser.add_argument(
        "--max-tuples", type=_COUNT, default=None, metavar="N",
        help="cap on generalized tuples materialized",
    )
    parser.add_argument(
        "--max-depth", type=_COUNT, default=None, metavar="N",
        help="cap on formula recursion depth",
    )


def _add_telemetry_flags(parser: argparse.ArgumentParser) -> None:
    """The export surfaces of the telemetry pipeline (all subcommands
    that evaluate anything)."""
    parser.add_argument(
        "--log-jsonl", default=None, metavar="FILE",
        help="stream structured log records (repro.log/1) as JSON lines",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="write the final metrics snapshot in Prometheus text format",
    )
    parser.add_argument(
        "--postmortem-dir", default=None, metavar="DIR",
        help="on an aborted run, dump a repro.postmortem/1 document here",
    )


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="write a structured JSON trace of the evaluation (repro.trace/1)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="print the per-phase cost tree after the result",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="print the guard's per-site counter summary (stderr)",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="-v: metrics summary on stderr; -vv: also list every span",
    )
    _add_telemetry_flags(parser)


def _add_memory_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--memory", action="store_true",
        help="attribute memory per span (span attrs, worker spans on "
        "--parallel runs, explain's memory attribution table)",
    )
    parser.add_argument(
        "--memory-backend", choices=("rss", "tracemalloc"), default="rss",
        dest="memory_backend",
        help="rss (default): near-free peak-RSS growth + allocator-block "
        "deltas; tracemalloc: exact allocated bytes at tracemalloc's "
        "documented cost (~3x on allocation-heavy runs)",
    )


def _add_cache_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the kernel memo cache, the rename/projection memo, "
        "tuple interning and the column-rename shortcut for this run "
        "(seed behavior)",
    )


def _cache_context(args: argparse.Namespace):
    """The kernel-cache escape hatch as a context manager."""
    if getattr(args, "no_cache", False):
        return kernel_cache_disabled()
    return contextlib.nullcontext()


def _add_parallel_flags(parser: argparse.ArgumentParser) -> None:
    """The pool flags, shard fault tolerance and stitching (every
    subcommand that runs something)."""
    parser.add_argument(
        "--parallel", action="store_true",
        help="activate a worker pool around the run and shard the "
        "relation kernels on it (serial evaluation is the default and "
        "the reference)",
    )
    parser.add_argument(
        "--workers", type=_POSITIVE_INT, default=None, metavar="N",
        help="worker pool size for --parallel (default: CPU count)",
    )
    parser.add_argument(
        "--shard-strategy", choices=("hash", "cell"), default="hash",
        help="tuple partitioner for --parallel: stable-hash or "
        "cell-aligned (default: hash)",
    )
    parser.add_argument(
        "--shard-timeout", type=_SECONDS, default=None, metavar="SECONDS",
        help="per-shard deadline; a shard past it is retried, then "
        "quarantined (default: none)",
    )
    parser.add_argument(
        "--shard-retries", type=_COUNT, default=None, metavar="N",
        help="pool re-dispatches per shard before quarantine (default: 2)",
    )
    parser.add_argument(
        "--on-shard-failure", choices=("fail", "serial", "partial"),
        default=None, dest="on_shard_failure",
        help="after a shard exhausts its retries: fail (exit 5, no "
        "quarantine), serial (quarantine, then exit 5; the default), or "
        "partial (drop the shard, print the tagged partial result)",
    )
    parser.add_argument(
        "--no-stitch", action="store_true", dest="no_stitch",
        help="disable worker-side telemetry capture and trace stitching "
        "for --parallel runs (only relevant when an observation surface "
        "is active; untraced runs never capture)",
    )


def _resilience_of(args: argparse.Namespace):
    """A ResiliencePolicy when any resilience flag departs from the
    defaults, else None (the context falls back to DEFAULT_POLICY)."""
    timeout = getattr(args, "shard_timeout", None)
    retries = getattr(args, "shard_retries", None)
    on_failure = getattr(args, "on_shard_failure", None)
    if timeout is None and retries is None and on_failure is None:
        return None
    from repro.parallel import ResiliencePolicy

    return ResiliencePolicy(
        shard_timeout=timeout,
        max_retries=retries if retries is not None else 2,
        on_failure=on_failure if on_failure is not None else "serial",
    )


def _context_of(args: argparse.Namespace):
    """An ExecutionContext when --parallel was requested, else None.

    The caller activates it around the whole run.  On a single-CPU
    machine an explicit ``--workers`` above 1 draws a warning.
    """
    if not getattr(args, "parallel", False):
        return None
    workers = getattr(args, "workers", None)
    if workers is not None and workers > 1 and (os.cpu_count() or 1) == 1:
        print(
            f"warning: --workers {workers} on a single-CPU machine; "
            "shards will time-slice one core",
            file=sys.stderr,
        )
    from repro.parallel import ExecutionContext

    return ExecutionContext(
        workers=workers,
        shard_strategy=getattr(args, "shard_strategy", "hash"),
        resilience=_resilience_of(args),
        capture=not getattr(args, "no_stitch", False),
        memory=(
            getattr(args, "memory_backend", "rss")
            if getattr(args, "memory", False) else None
        ),
    )


def _add_optimize_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--optimize", choices=("none", "heuristic"), default="none",
        help="query planning mode: none (the direct evaluator; the "
        "default) or heuristic (rule-engine rewrites)",
    )


def _planner_of(args: argparse.Namespace):
    """A QueryPlanner under ``--optimize heuristic``, else None."""
    if args.optimize == "none":
        return None
    from repro.core.physical import QueryPlanner

    return QueryPlanner()


def _tracer_of(args: argparse.Namespace,
               always: bool = False) -> Optional[Tracer]:
    """A Tracer when any observation surface was requested (``always``
    for ``explain``, whose report is one); the JSONL log sink is
    attached here so engine emission streams live."""
    wanted = (
        always
        or getattr(args, "trace", None)
        or getattr(args, "profile", False)
        # --stats needs a tracer too: without one a --parallel run has
        # nothing to stitch worker kernel counters into, and the kernel
        # table would report parent-only (near-zero) cache activity
        or getattr(args, "stats", False)
        or getattr(args, "verbose", 0)
        or getattr(args, "log_jsonl", None)
        or getattr(args, "metrics_out", None)
        or getattr(args, "postmortem_dir", None)
        # --memory needs span attribution, which needs a tracer
        or getattr(args, "memory", False)
    )
    if not wanted:
        return None
    tracer = Tracer()
    if getattr(args, "memory", False):
        from repro.obs.memory import MemoryProfiler

        tracer.memory = MemoryProfiler(getattr(args, "memory_backend", "rss"))
    if getattr(args, "log_jsonl", None):
        tracer.add_sink(JsonlSink(args.log_jsonl))
    return tracer


def _guard_of(args: argparse.Namespace,
              budget: Optional[Budget]) -> Optional[EvaluationGuard]:
    """A guard when there is a budget to enforce, stats to report, or a
    post-mortem to arm (the dump hook lives on the guard's exit)."""
    if (
        budget is not None
        or getattr(args, "stats", False)
        or getattr(args, "postmortem_dir", None)
    ):
        return EvaluationGuard(budget)
    return None


def _report_observation(args: argparse.Namespace,
                        tracer: Optional[Tracer],
                        guard: Optional[EvaluationGuard]) -> None:
    """Emit the requested observation surfaces (also on a failed run, so
    a tripped budget still leaves a trace of where the work went)."""
    if guard is not None and args.stats:
        print(guard_stats_table(guard.stats()), file=sys.stderr)
    if args.stats:
        stats = kernel_stats()
        if getattr(args, "no_cache", False):
            # the run itself bypassed the kernel cache; report it that way
            # even though the process-wide cache is re-enabled by now
            stats["cache.enabled"] = False
            stats["intern.enabled"] = False
        merged = None
        if tracer is not None:
            run_counters = {
                name: value
                for name, value in tracer.metrics.counters.items()
                if name.startswith("kernel.")
            }
            if run_counters:
                merged = run_counters
        print(kernel_stats_table(stats, merged), file=sys.stderr)
    if args.stats and tracer is not None and not args.profile:
        # under --profile the quantiles are part of the profile
        quantiles = render_latency_quantiles(tracer.metrics)
        if quantiles:
            print(quantiles, file=sys.stderr)
    if tracer is None:
        return
    if args.verbose:
        print(render_metrics_summary(tracer.metrics), file=sys.stderr)
    if args.verbose >= 2:
        for record in tracer.spans:
            print(
                f"  span {record.name} {record.duration * 1000:.3f}ms "
                f"attrs={record.attrs}",
                file=sys.stderr,
            )
    if args.profile:
        # the guard table went to stderr above under --stats
        print(render_profile(tracer))
    _export_observation(args, tracer, guard)


def _export_observation(args: argparse.Namespace, tracer: Tracer,
                        guard: Optional[EvaluationGuard]) -> None:
    """Write the requested trace and metrics files; close the sinks."""
    if args.trace:
        write_trace(args.trace, tracer, guard)
    if getattr(args, "metrics_out", None):
        write_prometheus(args.metrics_out, tracer.metrics)
    for sink in tracer.sinks:
        sink.close()


def _note_partial_shards(ctx) -> None:
    """Tag a run that dropped shards (--on-shard-failure=partial): the
    printed result is a sound subset, and the user must know."""
    if ctx is not None and ctx.is_partial:
        print(
            f"note: partial result — {ctx.dropped_shards} shard(s) "
            f"dropped after exhausting retries and quarantine",
            file=sys.stderr,
        )


def _print_relation(relation, as_intervals: bool) -> None:
    if as_intervals and relation.arity == 1:
        print(IntervalSet.from_relation(relation))
    else:
        print(relation.pretty())


def _cmd_info(args: argparse.Namespace) -> int:
    db = _load(args.database)
    print(f"{args.database}: {len(db)} relation(s), {encoding_size(db)} bytes encoded")
    rows = []
    for name in db.names():
        relation = db[name]
        atoms = sum(len(t.atoms) for t in relation.tuples)
        encoded = encoding_size(Database({name: relation}, theory=db.theory))
        rows.append((f"{name}/{relation.arity}", len(relation), atoms, encoded))
    if rows:
        width = max(len(r[0]) for r in rows)
        width = max(width, len("relation"))
        print(f"  {'relation'.ljust(width)} {'gtuples':>8} {'atoms':>7} {'bytes':>8}")
        for label, tuples, atoms, encoded in rows:
            print(f"  {label.ljust(width)} {tuples:>8} {atoms:>7} {encoded:>8}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    db = _load(args.database)
    formula = parse_formula(args.formula)
    budget = _budget_of(args)
    tracer = _tracer_of(args)
    guard = _guard_of(args, budget)
    ctx = _context_of(args)
    planner = _planner_of(args)
    try:
        with _cache_context(args), (
            tracer if tracer is not None else contextlib.nullcontext()
        ), ctx if ctx is not None else contextlib.nullcontext():
            result = _run_formula(formula, db, guard, planner)
        _note_partial_shards(ctx)
        if not result.schema:
            print("true" if not result.is_empty() else "false")
        else:
            _print_relation(result, as_intervals=not args.raw)
    finally:
        if ctx is not None:
            ctx.close()
        _report_observation(args, tracer, guard)
    return 0


def _cmd_datalog(args: argparse.Namespace) -> int:
    db = _load(args.database)
    program = parse_program(read_text(args.program, "program file"))
    budget = _budget_of(args)
    tracer = _tracer_of(args)
    guard = _guard_of(args, budget)
    ctx = _context_of(args)
    planner = _planner_of(args)
    try:
        with _cache_context(args), (
            tracer if tracer is not None else contextlib.nullcontext()
        ), ctx if ctx is not None else contextlib.nullcontext():
            result = evaluate_program(
                program,
                db,
                max_rounds=args.max_rounds,
                guard=guard,
                on_budget=args.on_budget,
                planner=planner,
            )
        _note_partial_shards(ctx)
        if result.reached_fixpoint:
            print(f"fixpoint after {result.rounds} round(s)")
        else:
            print(f"cut off after {result.rounds} round(s): {result.cut}")
        names = [args.show] if args.show else sorted(program.idb)
        for name in names:
            print(f"-- {name}")
            _print_relation(result[name], as_intervals=not args.raw)
    finally:
        if ctx is not None:
            ctx.close()
        _report_observation(args, tracer, guard)
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    """Run a query or program and report where the work went: the
    per-phase cost tree, the per-operator table and the guard's
    counters."""
    db = _load(args.database)
    guard = EvaluationGuard(_budget_of(args))  # guard stats are part of the report
    tracer = _tracer_of(args, always=True)
    ctx = _context_of(args)
    planner = _planner_of(args)
    try:
        with _cache_context(args), tracer, (
            ctx if ctx is not None else contextlib.nullcontext()
        ):
            summary = _run_explain(args, db, guard, planner)
        print(summary)
    finally:
        # a budget abort must not lose the partial telemetry: the cost
        # tree and operator table accumulated so far, with the guard's
        # counters, are printed and the requested exports written
        # either way
        print()
        print(render_profile(tracer, guard))
        _export_observation(args, tracer, guard)
        if ctx is not None:
            ctx.close()
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    """Print the rewritten plan, one tree per formula or rule, with
    per-node estimated rows (no execution)."""
    from repro.core.physical import QueryPlanner, render_plan
    from repro.datalog.engine import body_formula

    db = _load(args.database)
    if _is_program(args.query):
        program = parse_program(read_text(args.query, "program file"))
        targets = [
            (f"-- rule {index + 1}: {rule}", body_formula(rule))
            for index, rule in enumerate(program.rules)
        ]
    else:
        targets = [(None, parse_formula(args.query))]
    planner = QueryPlanner()
    for index, (heading, formula) in enumerate(targets):
        if index:
            print()
        if heading:
            print(heading)
        print(render_plan(planner.logical_plan(formula, db), db))
    return 0


def _is_program(query: str) -> bool:
    """Is the ``explain``/``plan`` argument a Datalog program file?"""
    return query.endswith(".dl") or os.path.exists(query)


def _run_formula(formula, db, guard, planner) -> Relation:
    """Evaluate one formula, through the planner when one was built."""
    if planner is not None:
        return planner.run(formula, db, db.theory, guard=guard)
    return evaluate(formula, db, guard=guard)


def _run_explain(args, db, guard, planner) -> str:
    """One explain evaluation; returns the one-line result summary."""
    if not _is_program(args.query):
        relation = _run_formula(parse_formula(args.query), db, guard, planner)
        if not relation.schema:
            return f"result: {'true' if not relation.is_empty() else 'false'}"
        return (
            f"result: {len(relation)} generalized tuple(s) over "
            f"({', '.join(relation.schema)})"
        )
    program = parse_program(read_text(args.query, "program file"))
    if args.engine == "naive":
        engine = evaluate_program
    elif args.engine == "seminaive":
        from repro.datalog.seminaive import evaluate_seminaive as engine
    else:
        from repro.datalog.stratified import evaluate_stratified as engine
    result = engine(
        program, db, max_rounds=args.max_rounds, guard=guard,
        on_budget=args.on_budget, planner=planner,
    )
    idb_tuples = sum(len(result[name]) for name in program.idb)
    if result.reached_fixpoint:
        return (
            f"result: fixpoint after {result.rounds} round(s), "
            f"{idb_tuples} IDB generalized tuple(s)"
        )
    return f"result: cut off after {result.rounds} round(s): {result.cut}"


def _cmd_roundtrip(args: argparse.Namespace) -> int:
    db = _load(args.database)
    sys.stdout.write(encode_database(db))
    return 0


def _cmd_trace_analyze(args: argparse.Namespace) -> int:
    """Critical path + bottleneck aggregation of one trace document."""
    from repro.obs import analyze_trace, load_trace, render_analysis

    document = load_trace(args.trace)
    print(render_analysis(analyze_trace(document), max_path=args.max_path))
    return EXIT_OK


def _cmd_trace_flame(args: argparse.Namespace) -> int:
    """Export one trace document as a flame graph."""
    from repro.obs import (
        collapsed_stacks,
        load_trace,
        speedscope_document,
        validate_speedscope,
        write_flame,
    )

    document = load_trace(args.trace)
    name = args.name or os.path.basename(args.trace)
    if args.out:
        write_flame(args.out, document, fmt=args.format, name=name)
        print(f"{args.format} flame graph -> {args.out}")
    elif args.format == "collapsed":
        print(collapsed_stacks(document))
    else:
        import json

        print(
            json.dumps(
                validate_speedscope(speedscope_document(document, name=name)),
                indent=2,
                sort_keys=True,
            )
        )
    return EXIT_OK


def _cmd_trace_diff(args: argparse.Namespace) -> int:
    """Diff two trace documents, attributing the latency delta."""
    from repro.obs import (
        diff_traces,
        load_trace,
        render_trace_diff,
        write_trace_diff,
    )

    before = load_trace(args.before)
    after = load_trace(args.after)
    document = diff_traces(
        before,
        after,
        label_before=args.label_before or os.path.basename(args.before),
        label_after=args.label_after or os.path.basename(args.after),
    )
    print(render_trace_diff(document))
    if args.out:
        write_trace_diff(args.out, document)
        print(f"trace-diff document -> {args.out}")
    return EXIT_OK


def _cmd_bench_watch(args: argparse.Namespace) -> int:
    """Compare the newest bench-history record against the trailing
    baseline; exit 4 when any metric regressed past the threshold.

    With ``--trace-before``/``--trace-after`` pointing at saved trace
    documents of the watched workload, a detected regression also
    renders the trace diff — the report names the operators that
    slowed down, not just the fact of the slowdown.
    """
    records = load_history(args.history)
    report = compare_latest(
        records, threshold=args.threshold, window=args.window
    )
    print(render_watch_report(report))
    if report["status"] != "regression":
        return EXIT_OK
    if args.trace_before and args.trace_after:
        from repro.obs import diff_traces, load_trace, render_trace_diff

        try:
            document = diff_traces(
                load_trace(args.trace_before),
                load_trace(args.trace_after),
                label_before=os.path.basename(args.trace_before),
                label_after=os.path.basename(args.trace_after),
            )
        except (ReproError, OSError) as error:
            # the watch verdict stands on the history alone; a missing
            # or malformed trace only costs the attribution report
            print(f"note: trace diff unavailable: {error}", file=sys.stderr)
        else:
            print()
            print(render_trace_diff(document))
    return EXIT_REGRESSION


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="dense-order constraint database CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="describe a database file")
    info.add_argument("database")
    info.set_defaults(fn=_cmd_info)

    query = sub.add_parser("query", help="evaluate an FO query")
    query.add_argument("database")
    query.add_argument("formula")
    query.add_argument("--raw", action="store_true", help="print constraint tuples")
    _add_budget_flags(query)
    _add_obs_flags(query)
    _add_cache_flag(query)
    _add_parallel_flags(query)
    _add_optimize_flags(query)
    _add_memory_flags(query)
    query.set_defaults(fn=_cmd_query)

    datalog = sub.add_parser("datalog", help="run a Datalog(not) program")
    datalog.add_argument("database")
    datalog.add_argument("program")
    datalog.add_argument("--show", help="print only this IDB predicate")
    datalog.add_argument(
        "--max-rounds", type=_COUNT, default=None, metavar="N",
        help="cap on fixpoint rounds",
    )
    datalog.add_argument(
        "--on-budget", choices=("raise", "partial"), default="raise",
        help="on budget exhaustion: fail (exit 3) or print the tagged "
        "partial result",
    )
    datalog.add_argument("--raw", action="store_true")
    _add_budget_flags(datalog)
    _add_obs_flags(datalog)
    _add_cache_flag(datalog)
    _add_parallel_flags(datalog)
    _add_optimize_flags(datalog)
    _add_memory_flags(datalog)
    datalog.set_defaults(fn=_cmd_datalog)

    explain_cmd = sub.add_parser(
        "explain",
        help="run a query or .dl program and print the per-phase cost "
        "tree with one per-operator table (calls, tuples in and out, "
        "seconds, sharded calls)",
    )
    explain_cmd.add_argument("database")
    explain_cmd.add_argument(
        "query",
        help="an FO formula, or a path to a Datalog(not) program file",
    )
    explain_cmd.add_argument(
        "--engine", choices=("naive", "seminaive", "stratified"), default="naive",
        help="Datalog engine to profile (program inputs only)",
    )
    explain_cmd.add_argument(
        "--max-rounds", type=_COUNT, default=None, metavar="N",
        help="cap on fixpoint rounds",
    )
    explain_cmd.add_argument(
        "--on-budget", choices=("raise", "partial"), default="raise",
    )
    explain_cmd.add_argument(
        "--trace", default=None, metavar="FILE",
        help="also write the structured JSON trace",
    )
    _add_budget_flags(explain_cmd)
    _add_cache_flag(explain_cmd)
    _add_parallel_flags(explain_cmd)
    _add_optimize_flags(explain_cmd)
    _add_telemetry_flags(explain_cmd)
    _add_memory_flags(explain_cmd)
    explain_cmd.set_defaults(fn=_cmd_explain)

    plan_cmd = sub.add_parser(
        "plan",
        help="print the optimized plan with per-node estimated rows "
        "(no execution)",
    )
    plan_cmd.add_argument("database")
    plan_cmd.add_argument(
        "query",
        help="an FO formula, or a path to a Datalog(not) program file "
        "(one plan per rule body)",
    )
    plan_cmd.set_defaults(fn=_cmd_plan)

    roundtrip = sub.add_parser("reencode", help="normalize a database file")
    roundtrip.add_argument("database")
    roundtrip.set_defaults(fn=_cmd_roundtrip)

    trace_cmd = sub.add_parser(
        "trace",
        help="analyze saved repro.trace/1 documents: critical paths, "
        "flame graphs, structural diffs",
    )
    trace_sub = trace_cmd.add_subparsers(dest="trace_command", required=True)

    analyze = trace_sub.add_parser(
        "analyze",
        help="critical path, per-operator hotspots, and per-phase "
        "totals of one trace",
    )
    analyze.add_argument("trace", help="a repro.trace/1 JSON document")
    analyze.add_argument(
        "--max-path", type=_COUNT, default=40, metavar="N", dest="max_path",
        help="cap on critical-path segments printed (default 40)",
    )
    analyze.set_defaults(fn=_cmd_trace_analyze)

    flame = trace_sub.add_parser(
        "flame",
        help="export a trace as a flame graph (speedscope JSON or "
        "collapsed stacks)",
    )
    flame.add_argument("trace", help="a repro.trace/1 JSON document")
    flame.add_argument(
        "-o", "--out", default=None, metavar="FILE",
        help="write here instead of stdout",
    )
    flame.add_argument(
        "--format", choices=("speedscope", "collapsed"), default="speedscope",
        help="speedscope (default): load at https://speedscope.app; "
        "collapsed: flamegraph.pl-style 'a;b;c <µs>' lines",
    )
    flame.add_argument(
        "--name", default=None,
        help="profile name embedded in the export (default: the trace "
        "file's basename)",
    )
    flame.set_defaults(fn=_cmd_trace_flame)

    tdiff = trace_sub.add_parser(
        "diff",
        help="diff two traces of the same workload, attributing the "
        "latency delta to named operators and phases",
    )
    tdiff.add_argument("before", help="baseline repro.trace/1 document")
    tdiff.add_argument("after", help="candidate repro.trace/1 document")
    tdiff.add_argument(
        "-o", "--out", default=None, metavar="FILE",
        help="also write the repro.trace-diff/1 JSON document here",
    )
    tdiff.add_argument(
        "--label-before", default=None, dest="label_before", metavar="LABEL",
        help="label for the baseline column (default: its basename)",
    )
    tdiff.add_argument(
        "--label-after", default=None, dest="label_after", metavar="LABEL",
        help="label for the candidate column (default: its basename)",
    )
    tdiff.set_defaults(fn=_cmd_trace_diff)

    watch = sub.add_parser(
        "bench-watch",
        help="compare the latest bench-history record against the "
        "trailing baseline (exit 4 on regression)",
    )
    watch.add_argument(
        "--history", default="benchmarks/BENCH_HISTORY.jsonl", metavar="FILE",
        help="the repro.bench-history/1 JSONL file to read",
    )
    watch.add_argument(
        "--threshold", type=_RATIO, default=1.5, metavar="RATIO",
        help="flag a metric slower than RATIO x its baseline (default 1.5)",
    )
    watch.add_argument(
        "--window", type=_POSITIVE_INT, default=5, metavar="N",
        help="baseline = median of the previous up-to-N records (default 5)",
    )
    watch.add_argument(
        "--trace-before", default=None, dest="trace_before", metavar="FILE",
        help="baseline repro.trace/1 document of the watched workload; "
        "with --trace-after, a regression also renders the trace diff",
    )
    watch.add_argument(
        "--trace-after", default=None, dest="trace_after", metavar="FILE",
        help="candidate repro.trace/1 document (see --trace-before)",
    )
    watch.set_defaults(fn=_cmd_bench_watch)

    args = parser.parse_args(argv)
    recorder = flight_recorder()
    previous_dump_dir = recorder.dump_dir
    if getattr(args, "postmortem_dir", None):
        configure_flight_recorder(dump_dir=args.postmortem_dir)
        recorder.last_path = None
    try:
        return args.fn(args)
    except BudgetExceeded as error:
        print(f"budget exceeded: {error}", file=sys.stderr)
        diag = error.diagnostics()
        detail = ", ".join(f"{key}={diag[key]}" for key in sorted(diag))
        print(f"diagnostics: {detail}", file=sys.stderr)
        if getattr(args, "postmortem_dir", None):
            # budget errors that never crossed a guard exit (e.g. an
            # engine-local --max-rounds cut with no guard active) still
            # deserve a dump; the recorder dedupes the guarded ones
            recorder.dump(error=error, reason="cli")
        if recorder.last_path:
            print(f"post-mortem: {recorder.last_path}", file=sys.stderr)
        return EXIT_BUDGET
    except ShardFailedError as error:
        # must precede ReproError: a shard that failed retries AND
        # quarantine is an infrastructure verdict, not an input error,
        # and scripts retry exit 5 differently than they fix exit 1
        print(f"shard failure: {error}", file=sys.stderr)
        diag = error.diagnostics()
        detail = ", ".join(f"{key}={diag[key]}" for key in sorted(diag))
        print(f"diagnostics: {detail}", file=sys.stderr)
        if recorder.last_path:
            print(f"post-mortem: {recorder.last_path}", file=sys.stderr)
        return EXIT_SHARD
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_ERROR
    finally:
        recorder.dump_dir = previous_dump_dir


if __name__ == "__main__":
    raise SystemExit(main())
