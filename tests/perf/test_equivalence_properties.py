"""Property tests: the kernel fast path never changes results.

Every answer computed with the memo cache and interning pool enabled
must be logically equivalent to — and for Datalog, syntactically equal
to — the answer computed with ``--no-cache`` semantics.  Random FO
formulas and random digraph Datalog programs exercise every kernel
entry point through the evaluator.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.database import Database
from repro.core.evaluator import evaluate
from repro.core.gtuple import GTuple
from repro.core.relation import Relation
from repro.core.theory import DENSE_ORDER
from repro.datalog.engine import evaluate_program
from repro.datalog.seminaive import evaluate_seminaive
from repro.errors import EvaluationError
from repro.lang import parse_program
from repro.perf import kernel_cache_disabled, reset_kernel_cache
from repro.queries.library import transitive_closure_program
from tests.strategies import formulas


def _db():
    from repro.core.atoms import le, lt

    database = Database()
    database["T"] = Relation(
        DENSE_ORDER,
        ("x", "y"),
        [GTuple.make(DENSE_ORDER, ("x", "y"), [le("x", "y"), le(0, "x")])],
    )
    database["S"] = Relation(
        DENSE_ORDER,
        ("x",),
        [GTuple.make(DENSE_ORDER, ("x",), [lt(2, "x"), lt("x", 4)])],
    )
    return database


@st.composite
def small_digraphs(draw, max_nodes=5):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    edges = set()
    for a in range(n):
        for b in range(n):
            if a != b and draw(st.booleans()):
                edges.add((a, b))
    return n, frozenset(edges)


@st.composite
def mixed_edge_relations(draw, max_tuples=6):
    """``E(x, y)`` mixing point tuples with interval tuples
    (``c <= x < y <= d``) and diagonal tuples (``x = y``,
    ``c <= x <= d``), so fixpoint rounds rename non-point tuples and
    ``Var = Var`` tuples."""
    from repro.core.atoms import eq, le, lt

    schema = ("x", "y")
    tuples = []
    kinds = st.sampled_from(["point", "interval", "diagonal"])
    for kind in draw(st.lists(kinds, min_size=1, max_size=max_tuples)):
        c = draw(st.integers(min_value=0, max_value=4))
        d = draw(st.integers(min_value=c + 1, max_value=5))
        if kind == "point":
            ends = draw(st.sampled_from([(c, d), (d, c)]))
            tuples.append(GTuple.point(DENSE_ORDER, schema, ends))
        elif kind == "interval":
            atoms = [le(c, "x"), lt("x", "y"), le("y", d)]
            tuples.append(GTuple.make(DENSE_ORDER, schema, atoms))
        else:
            atoms = [eq("x", "y"), le(c, "x"), le("x", d)]
            tuples.append(GTuple.make(DENSE_ORDER, schema, atoms))
    return Relation(DENSE_ORDER, schema, tuples)


class TestFirstOrderEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(formulas(depth=2))
    def test_cached_matches_disabled(self, formula):
        db = _db()
        reset_kernel_cache()
        try:
            cached = evaluate(formula, db)
        except EvaluationError:
            with kernel_cache_disabled():
                try:
                    evaluate(formula, db)
                except EvaluationError:
                    return
                raise AssertionError("only the cached path rejected the formula")
        with kernel_cache_disabled():
            plain = evaluate(formula, db)
        assert cached.schema == plain.schema
        assert cached.equivalent(plain)


class TestDatalogEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(small_digraphs())
    def test_transitive_closure_syntactically_identical(self, graph):
        n, edges = graph
        db = Database({"E": Relation.from_points(("x", "y"), sorted(edges))})
        program = transitive_closure_program()

        reset_kernel_cache()
        cached = evaluate_program(program, db)["tc"]
        with kernel_cache_disabled():
            plain = evaluate_program(program, db)["tc"]
        assert cached.tuples == plain.tuples

        reset_kernel_cache()
        semi = evaluate_seminaive(program, db)["tc"]
        with kernel_cache_disabled():
            semi_plain = evaluate_seminaive(program, db)["tc"]
        assert frozenset(semi.tuples) == frozenset(semi_plain.tuples)
        assert frozenset(semi.tuples) == frozenset(cached.tuples)

    @settings(max_examples=40, deadline=None)
    @given(mixed_edge_relations())
    def test_transitive_closure_over_intervals_and_diagonals(self, edges):
        db = Database({"E": edges})
        # TC of the converse: its scans swap E's columns, so a diagonal
        # tuple's equality class changes its representative on the way
        # to the head
        programs = (transitive_closure_program(), parse_program(
            "tc(x, y) :- E(y, x).\ntc(x, z) :- tc(x, y), E(z, y).\n"
        ))
        for program in programs:
            for engine in (evaluate_program, evaluate_seminaive):
                reset_kernel_cache()
                cached = engine(program, db)["tc"]
                with kernel_cache_disabled():
                    plain = engine(program, db)["tc"]
                assert cached.tuples == plain.tuples
