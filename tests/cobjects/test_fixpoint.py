"""Tests for the C-CALC fixpoint extension (Theorem 5.6)."""

from fractions import Fraction

import pytest

from repro.cobjects.calculus import CAnd, CConstraint, CExists, COr, CRelation
from repro.cobjects.fixpoint import FixpointQuery, evaluate_fixpoint
from repro.core.atoms import le, lt
from repro.core.database import Database
from repro.core.relation import Relation
from repro.core.terms import as_term
from repro.errors import DatalogError, EvaluationError
from repro.obs import Tracer
from repro.workloads.generators import path_graph
from tests.datalog.test_driver import absorbing_database, full_absorption_runs


def R(name, *args):
    return CRelation(name, tuple(as_term(a) for a in args))


class TestTransitiveClosure:
    def test_tc_in_ccalc0_fixpoint(self):
        """Transitive closure -- not FO, definable in C-CALC_0 + fixpoint."""
        db = path_graph(5)
        step = COr(
            (
                R("E", "x", "y"),
                CExists(("z",), CAnd((R("TC", "x", "z"), R("E", "z", "y")))),
            )
        )
        query = FixpointQuery("TC", ("x", "y"), step)
        tc = evaluate_fixpoint(query, db)
        assert tc.contains_point([0, 4])
        assert not tc.contains_point([4, 0])

    def test_dense_interval_spread(self):
        """Fixpoint over constraint relations stays in closed form."""
        db = Database()
        db["S"] = Relation.from_points(("x",), [(0,), (10,)])
        body = COr(
            (
                R("S", "x"),
                CExists(
                    ("a", "b"),
                    CAnd(
                        (
                            R("F", "a"),
                            R("F", "b"),
                            CConstraint(lt("a", "x")),
                            CConstraint(lt("x", "b")),
                        )
                    ),
                ),
            )
        )
        query = FixpointQuery("F", ("x",), body)
        out = evaluate_fixpoint(query, db)
        assert out.contains_point([5])
        assert out.contains_point([0])
        assert not out.contains_point([11])


class TestDeltaAbsorption:
    def test_stages_match_full_absorption(self):
        """``F(x) := A(x) or exists y (F(y) and B(y, x))``: round 2
        derives ``0 < x < 1``, which absorbs the stored ``x = 1/2``.
        Every stage holds the tuples, in order, of a run whose
        absorption tests every pair."""
        db = absorbing_database()
        step = COr((R("A", "x"), CExists(("y",), CAnd((R("F", "y"), R("B", "y", "x"))))))
        query = FixpointQuery("F", ("x",), step)
        with Tracer() as tracer:
            final = evaluate_fixpoint(query, db)
        rounds = tracer.metrics.counter("ccalc.fixpoint.rounds")
        assert rounds == 3
        assert tracer.metrics.counter("relation.simplify.tuples_absorbed") == 2

        def run(i):
            return evaluate_fixpoint(query, db, max_rounds=i, on_budget="partial")

        stages = [run(i) for i in range(1, rounds + 1)]
        assert stages[-1].tuples == final.tuples
        for i, (stage, full) in enumerate(zip(stages, full_absorption_runs(run, rounds)), 1):
            assert stage.tuples == full.tuples, i
            assert stage.simplify().tuples == stage.tuples, i


class TestGuards:
    def test_name_clash_rejected(self):
        db = path_graph(2)
        query = FixpointQuery("E", ("x", "y"), R("E", "x", "y"))
        with pytest.raises(DatalogError):
            evaluate_fixpoint(query, db)

    def test_max_rounds(self):
        db = path_graph(6)
        step = COr(
            (
                R("E", "x", "y"),
                CExists(("z",), CAnd((R("TC", "x", "z"), R("E", "z", "y")))),
            )
        )
        query = FixpointQuery("TC", ("x", "y"), step)
        with pytest.raises(EvaluationError):
            evaluate_fixpoint(query, db, max_rounds=1)

    def test_arity_property(self):
        q = FixpointQuery("X", ("a", "b", "c"), CRelation("E", ()))
        assert q.arity == 3
