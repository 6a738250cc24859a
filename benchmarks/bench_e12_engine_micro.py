"""E12 -- engine micro-costs: QE, joins, negation blowup.

Not a paper table: the ablation series DESIGN.md calls for.  These
micro-benchmarks isolate the engine's primitive costs so the experiment
series E2-E10 can be interpreted:

* quantifier elimination per variable (bound-pair composition);
* natural join fan-out (tuples x tuples satisfiability checks);
* complement blowup in the number of representation tuples -- the one
  genuinely exponential primitive (and why `difference` prunes early);
* canonicalization (bounds-matrix closure) per conjunction size.
"""

import pytest

from repro.core.atoms import le, lt
from repro.core.gtuple import GTuple
from repro.core.relation import Relation
from repro.core.theory import DENSE_ORDER
from repro.perf.columnar import BoundsMatrix
from repro.workloads.generators import random_interval_set


@pytest.mark.parametrize("chain", [2, 4, 8, 16])
def test_quantifier_elimination_chain(benchmark, chain):
    """Eliminate the middle of an inequality chain of given length."""
    schema = tuple(f"v{i}" for i in range(chain))
    atoms = [lt(f"v{i}", f"v{i+1}") for i in range(chain - 1)]
    t = GTuple.make(DENSE_ORDER, schema, atoms)

    def run():
        current = t
        for i in range(1, chain - 1):
            [current] = current.project_out_all(f"v{i}")
        return current

    result = benchmark(run)
    assert result.schema == ("v0", f"v{chain-1}")


@pytest.mark.parametrize("n", [2, 4, 8])
def test_join_fanout(benchmark, n):
    """Join of two n-tuple unary relations on a shared column."""
    a = random_interval_set(3, count=n).to_relation("x")
    b = random_interval_set(9, count=n).to_relation("x")
    benchmark(lambda: a.join(b))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_complement_blowup(benchmark, n):
    """Complement cost vs number of representation tuples."""
    relation = random_interval_set(21, count=n).to_relation("x")
    benchmark(relation.complement)


@pytest.mark.parametrize("atoms", [4, 8, 16])
def test_kernel_closure(benchmark, atoms):
    """Satisfiability + canonical form of one conjunction."""
    conjunction = [lt(f"w{i}", f"w{i+1}") for i in range(atoms)]
    conjunction += [le(0, "w0"), le(f"w{atoms}", 100)]

    def run():
        g = BoundsMatrix(conjunction)
        return g.canonical_atoms()

    result = benchmark(run)
    assert result


@pytest.mark.parametrize("n", [2, 4, 8])
def test_equivalence_check(benchmark, n):
    """Relation equivalence: two containments via complement."""
    a = random_interval_set(33, count=n).to_relation("x")
    b = a.simplify()
    assert benchmark(lambda: a.equivalent(b))


@pytest.mark.parametrize("engine", ["naive", "seminaive"])
def test_datalog_engine_ablation(benchmark, engine):
    """Naive vs semi-naive fixpoint evaluation (ablation): deltas cut
    the join fan-in roughly in half on path transitive closure."""
    from repro.datalog.engine import evaluate_program
    from repro.datalog.seminaive import evaluate_seminaive
    from repro.queries.library import transitive_closure_program
    from repro.workloads.generators import path_graph

    db = path_graph(8)
    program = transitive_closure_program()
    run = evaluate_program if engine == "naive" else evaluate_seminaive
    result = benchmark(lambda: run(program, db))
    assert result.reached_fixpoint


@pytest.mark.parametrize("mode", ["direct", "plan", "optimized-plan"])
def test_query_processing_ablation(benchmark, mode):
    """Evaluator vs naive plan vs optimized plan on a selective join.

    Selection pushdown should never lose and typically wins when the
    filter is selective.
    """
    from repro.core.atoms import lt as LT
    from repro.core.evaluator import evaluate
    from repro.core.formula import constraint, exists, rel
    from repro.core.physical import QueryPlanner, execute_plan
    from repro.core.planner import compile_formula
    from repro.workloads.generators import random_interval_database

    db = random_interval_database(71, count=10)
    f = exists(
        "y",
        rel("S", "x") & rel("S", "y") & constraint(LT("x", "y"))
        & constraint(LT("y", -20)),
    )
    if mode == "direct":
        run = lambda: evaluate(f, db)
    elif mode == "plan":
        plan = compile_formula(f)
        run = lambda: execute_plan(plan, db)
    else:
        plan = QueryPlanner(mode="heuristic").logical_plan(f, db)
        run = lambda: execute_plan(plan, db)
    result = benchmark(run)
    assert result.arity == 1
