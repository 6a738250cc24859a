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
JSON trace (schema ``repro.trace/1``), the one record of a run.  It is
written when a budget aborts the run too, with the aborting span's
``error`` attribute and the guard's partial counters.  A trace file
that cannot be written adds one ``error:`` line and leaves the run's
own outcome standing: an aborted run still exits ``3``, a completed
one exits ``1``.

Two subcommands inspect plans and runs.  ``plan`` plans without
running: one tree per formula or Datalog rule, each node with its
estimated rows (generalized tuples).  ``explain`` runs a query or
program and prints the report of its trace, also when a budget aborts
the run: the critical path, the self-time hotspots and phases, one
per-operator table (calls, tuples in and out, seconds, and how many
calls sharded on a pool), the QE line, fixpoint rounds with their
delta sizes, latency quantiles, the kernel cache line and the guard's
counters; ``--trace`` writes the document the report was read from.
``--optimize={none,heuristic}`` picks the planning mode on
``query``/``datalog``/``explain``: ``none`` (the default) runs the
direct evaluator, ``heuristic`` the rule-engine rewrites.

Trace analysis (the :mod:`repro.obs` analysis toolkit): ``repro trace
analyze TRACE`` prints the same report of a saved ``repro.trace/1``
document, byte for byte what ``explain`` printed after its result
line; ``repro trace flame TRACE`` exports it as a speedscope JSON profile
(or ``--format collapsed`` stack lines); ``repro trace diff BEFORE
AFTER`` structurally diffs two traces of the same workload and
attributes the latency delta to named operators, optionally writing a
``repro.trace-diff/1`` document with ``-o``.

``--memory`` (on ``query``/``datalog``/``explain``) turns
on per-span memory attribution: every traced span gains
``mem_alloc_blocks``/``mem_peak_bytes`` attrs, the report prints a
per-span ``memory attribution`` table, and ``--parallel`` runs capture
the same attrs inside pool workers.  The default ``rss`` backend is
cheap: E21 prints a 5% target and asserts that its worst workload
stays below 1.25x of the unprofiled traced run; ``--memory-backend
tracemalloc`` adds exact ``mem_alloc_bytes`` at tracemalloc's
documented cost.

Exit codes are uniform across subcommands: ``0`` ok, ``1``
encoding/input error, ``2`` usage error, ``3`` budget exhausted,
``5`` unrecoverable shard failure (see the README table; asserted by
``tests/obs/test_cli_exit_codes.py``).  ``4`` is not used.

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

Numeric flags are checked when parsed: ``--workers`` must be at
least 1, ``--timeout`` and ``--shard-timeout`` positive, and
``--shard-retries``, ``--max-tuples``, ``--max-depth``,
``--max-rounds`` and ``trace analyze --max-path`` non-negative;
anything else is a usage error (exit ``2``).

When a run is traced (``--trace``, ``--memory`` or ``explain``),
``--parallel`` runs capture worker-side telemetry and stitch it into
the parent trace (spans with ``pid``/``shard``/``attempt`` attributes,
worker events and kernel-cache deltas), so the trace and its report
see inside the pool; ``--no-stitch`` turns the capture off for
overhead-sensitive runs (untraced runs never pay for it either way).
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
from repro.obs import Tracer, render_report, trace_document, write_trace
from repro.perf import kernel_cache_disabled
from repro.runtime.budget import Budget, BudgetExceeded
from repro.runtime.guard import EvaluationGuard

__all__ = [
    "main",
    "EXIT_OK",
    "EXIT_ERROR",
    "EXIT_USAGE",
    "EXIT_BUDGET",
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


#: a worker count
_POSITIVE_INT = _bounded(int, 1)
#: a cap on tuples, depth, rounds, retries or printed path segments
_COUNT = _bounded(int, 0)
#: a deadline
_SECONDS = _bounded(float, 0, strict=True)


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


def _add_trace_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="write a structured JSON trace of the evaluation "
        "(repro.trace/1; written even when a budget aborts the run)",
    )


def _add_memory_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--memory", action="store_true",
        help="attribute memory per span (span attrs, worker spans on "
        "--parallel runs, the report's memory attribution table)",
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
        "for --parallel runs (only relevant to traced runs: --trace, "
        "--memory or explain; untraced runs never capture)",
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
    """A Tracer under ``--trace`` or ``--memory`` (span attribution
    needs one), or ``always`` for ``explain``, whose report reads one."""
    if not (always or args.trace or args.memory):
        return None
    tracer = Tracer()
    if args.memory:
        from repro.obs.memory import MemoryProfiler

        tracer.memory = MemoryProfiler(args.memory_backend)
    return tracer


def _guard_of(args: argparse.Namespace,
              budget: Optional[Budget]) -> Optional[EvaluationGuard]:
    """A guard when there is a budget to enforce, ``--max-rounds``
    included: its diagnostics read the guard's elapsed time and tuple
    count, which are zero without one."""
    if budget is not None or getattr(args, "max_rounds", None) is not None:
        return EvaluationGuard(budget)
    return None


def _export_trace(path: str, document: dict) -> bool:
    """Write the trace file; False when it cannot be written.

    Runs in the ``finally:`` that reports a run, so it must not raise:
    an OSError here would replace a budget error on its way to
    :func:`main`, and the run would lose its exit code and diagnostics.
    One ``error:`` line names the file instead.
    """
    try:
        write_trace(path, document)
    except OSError as error:
        print(
            f"error: trace not written to {path}: {error.strerror or error}",
            file=sys.stderr,
        )
        return False
    return True


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
        traced = not args.trace or _export_trace(
            args.trace, trace_document(tracer, guard)
        )
    return EXIT_OK if traced else EXIT_ERROR


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
        traced = not args.trace or _export_trace(
            args.trace, trace_document(tracer, guard)
        )
    return EXIT_OK if traced else EXIT_ERROR


def _cmd_explain(args: argparse.Namespace) -> int:
    """Run a query or program and print the report of its trace: the
    result line, then what ``repro trace analyze`` prints of the
    document ``--trace`` writes."""
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
        # a budget abort must not lose the partial account: the report
        # of what ran so far is printed and the trace written either
        # way, both from one document, so they cannot disagree
        document = trace_document(tracer, guard)
        print(render_report(document))
        traced = not args.trace or _export_trace(args.trace, document)
        if ctx is not None:
            ctx.close()
    return EXIT_OK if traced else EXIT_ERROR


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
    """The report of one saved trace document (what ``explain``
    printed of it)."""
    from repro.obs import load_trace

    print(render_report(load_trace(args.trace), max_path=args.max_path))
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
    _add_trace_flag(query)
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
    _add_trace_flag(datalog)
    _add_cache_flag(datalog)
    _add_parallel_flags(datalog)
    _add_optimize_flags(datalog)
    _add_memory_flags(datalog)
    datalog.set_defaults(fn=_cmd_datalog)

    explain_cmd = sub.add_parser(
        "explain",
        help="run a query or .dl program and print the report of its "
        "trace (what 'trace analyze' prints of the saved file)",
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
    _add_trace_flag(explain_cmd)
    _add_budget_flags(explain_cmd)
    _add_cache_flag(explain_cmd)
    _add_parallel_flags(explain_cmd)
    _add_optimize_flags(explain_cmd)
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
        help="the report of one trace: critical path, hotspots, phases, "
        "operator table, QE, fixpoint rounds, quantiles, memory, kernel "
        "cache and guard counters (what explain prints)",
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

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BudgetExceeded as error:
        print(f"budget exceeded: {error}", file=sys.stderr)
        diag = error.diagnostics()
        detail = ", ".join(f"{key}={diag[key]}" for key in sorted(diag))
        print(f"diagnostics: {detail}", file=sys.stderr)
        return EXIT_BUDGET
    except ShardFailedError as error:
        # must precede ReproError: a shard that failed retries AND
        # quarantine is an infrastructure verdict, not an input error,
        # and scripts retry exit 5 differently than they fix exit 1
        print(f"shard failure: {error}", file=sys.stderr)
        diag = error.diagnostics()
        detail = ", ".join(f"{key}={diag[key]}" for key in sorted(diag))
        print(f"diagnostics: {detail}", file=sys.stderr)
        return EXIT_SHARD
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
