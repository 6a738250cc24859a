#!/usr/bin/env python3
"""Observability: trace an evaluation and print its report.

Closed-form evaluation hides a lot of work -- quantifier eliminations,
complements that explode then re-simplify, fixpoint rounds whose deltas
shrink toward zero.  The observability layer (:mod:`repro.obs`) makes
that work visible without touching any engine code path when disabled:

1. run a transitive-closure program under a :class:`Tracer` and an
   :class:`EvaluationGuard`, collecting spans + metrics + guard stats;
2. build the run's one record, the ``repro.trace/1`` document, and
   write it for downstream tooling;
3. print the report of that document -- what the ``explain`` CLI
   subcommand prints after its result line, and ``repro trace
   analyze`` prints of the written file.

Set ``TRACE_OUT=/path/to/trace.json`` to choose the export path.

Run:  python examples/observability_profile.py
"""

import os
import tempfile

from repro.core.database import Database
from repro.core.relation import Relation
from repro.datalog.seminaive import evaluate_seminaive
from repro.lang import parse_program
from repro.obs import Tracer, render_report, trace_document, write_trace
from repro.runtime.guard import EvaluationGuard

PROGRAM = """
tc(x, y) :- edge(x, y).
tc(x, z) :- tc(x, y), edge(y, z).
"""


def build_database() -> Database:
    """A 6-node path graph: fixpoint needs several shrinking rounds."""
    db = Database()
    db["edge"] = Relation.from_points(
        ("x", "y"), [(i, i + 1) for i in range(6)]
    )
    return db


def main() -> None:
    db = build_database()
    program = parse_program(PROGRAM)

    tracer = Tracer()
    guard = EvaluationGuard()
    with tracer:
        result = evaluate_seminaive(program, db, guard=guard)

    print(f"fixpoint after {result.rounds} round(s), "
          f"{len(result['tc'])} tc tuple(s)")

    out = os.environ.get("TRACE_OUT")
    if not out:
        out = os.path.join(tempfile.gettempdir(), "repro_trace.json")
    document = write_trace(out, trace_document(tracer, guard))
    print(f"trace written to {out}: {len(document['spans'])} span(s), "
          f"{len(document['metrics']['counters'])} counter(s)")
    print()
    print(render_report(document))


if __name__ == "__main__":
    main()
