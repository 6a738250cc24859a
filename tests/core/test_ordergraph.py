"""Unit and property tests for the dense-order kernel (``BoundsMatrix``)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from repro.core.atoms import Atom, Op, eq, le, lt, ne
from repro.core.terms import Const, Var
from repro.errors import TheoryError
from repro.perf.columnar import BoundsMatrix
from tests.strategies import conjunctions


class TestSatisfiability:
    def test_empty_is_satisfiable(self):
        assert BoundsMatrix([]).is_satisfiable()

    def test_simple_chain(self):
        g = BoundsMatrix([lt("x", "y"), lt("y", "z")])
        assert g.is_satisfiable()

    def test_strict_cycle_unsat(self):
        g = BoundsMatrix([lt("x", "y"), le("y", "x")])
        assert not g.is_satisfiable()

    def test_weak_cycle_sat(self):
        g = BoundsMatrix([le("x", "y"), le("y", "x")])
        assert g.is_satisfiable()

    def test_constants_forced_equal_unsat(self):
        g = BoundsMatrix([le(1, "x"), le("x", 1), eq("x", 2)])
        assert not g.is_satisfiable()

    def test_implicit_constant_order(self):
        # 2 <= x and x <= 1 contradicts 1 < 2 even though no atom says so
        g = BoundsMatrix([le(2, "x"), le("x", 1)])
        assert not g.is_satisfiable()

    def test_implicit_constant_order_weakly_ok(self):
        g = BoundsMatrix([le(1, "x"), le("x", 2)])
        assert g.is_satisfiable()

    def test_transitive_contradiction(self):
        g = BoundsMatrix([lt("x", "y"), lt("y", "z"), lt("z", "x")])
        assert not g.is_satisfiable()

    def test_pinned_between_constants(self):
        g = BoundsMatrix([lt(0, "x"), lt("x", 1), eq("x", Fraction(1, 2))])
        assert g.is_satisfiable()

    def test_ne_atom_rejected(self):
        with pytest.raises(TheoryError):
            BoundsMatrix([Atom(Var("x"), Op.NE, Var("y"))])


class TestImplication:
    def test_transitive_strict(self):
        g = BoundsMatrix([lt("x", "y"), lt("y", "z")])
        assert g.implies(lt("x", "z"))
        assert g.implies(le("x", "z"))
        assert g.implies(ne("x", "z"))
        assert not g.implies(eq("x", "z"))

    def test_weak_chain_implies_weak_only(self):
        g = BoundsMatrix([le("x", "y"), le("y", "z")])
        assert g.implies(le("x", "z"))
        assert not g.implies(lt("x", "z"))

    def test_mixed_chain_is_strict(self):
        g = BoundsMatrix([le("x", "y"), lt("y", "z")])
        assert g.implies(lt("x", "z"))

    def test_equality_from_two_weaks(self):
        g = BoundsMatrix([le("x", "y"), le("y", "x")])
        assert g.implies(eq("x", "y"))

    def test_constant_gap(self):
        g = BoundsMatrix([le("x", 1), le(2, "y")])
        assert g.implies(lt("x", "y"))

    def test_unsat_implies_everything(self):
        g = BoundsMatrix([lt("x", "x") if False else lt("x", "y"), lt("y", "x")])
        assert g.implies(eq("x", "y"))
        assert g.implies(lt("y", "x"))

    def test_boolean_candidates(self):
        g = BoundsMatrix([lt("x", "y")])
        assert g.implies(True)
        assert not g.implies(False)

    def test_fresh_constant_reasoning(self):
        # {x = -1} entails x <= 0 although 0 is not a matrix slot
        x = Var("x")
        matrix = BoundsMatrix([eq(x, Const(-1))])
        assert matrix.implies(le(x, Const(0)))
        assert not matrix.implies(le(Const(0), x))
        assert matrix.implies(lt(x, Const(5)))


class TestRelationBetween:
    def test_unrelated(self):
        g = BoundsMatrix([lt("x", "y")])
        assert g.relation_between(Var("x"), Var("z")) is None

    def test_constants_numeric(self):
        g = BoundsMatrix([])
        assert g.relation_between(Const(Fraction(1)), Const(Fraction(2))) is Op.LT
        assert g.relation_between(Const(Fraction(2)), Const(Fraction(1))) is Op.GT

    def test_same_term(self):
        g = BoundsMatrix([])
        assert g.relation_between(Var("x"), Var("x")) is Op.EQ


class TestEqualityClasses:
    def test_merges_chain_of_equalities(self):
        g = BoundsMatrix([eq("x", "y"), eq("y", "z")])
        classes = {frozenset(v.name for v in cls if isinstance(v, Var)) for cls in g.equality_classes()}
        assert frozenset({"x", "y", "z"}) in classes

    def test_weak_cycle_merges(self):
        g = BoundsMatrix([le("x", "y"), le("y", "z"), le("z", "x")])
        [cls] = g.equality_classes()
        assert cls == frozenset({Var("x"), Var("y"), Var("z")})


class TestCanonicalAtoms:
    def test_unsat_raises(self):
        g = BoundsMatrix([lt("x", "y"), lt("y", "x")])
        with pytest.raises(TheoryError):
            g.canonical_atoms()

    def test_transitive_edge_dropped(self):
        g = BoundsMatrix([lt("x", "y"), lt("y", "z"), lt("x", "z")])
        assert g.canonical_atoms() == frozenset({lt("x", "y"), lt("y", "z")})

    def test_equalities_to_constant_representative(self):
        g = BoundsMatrix([eq("x", "y"), eq("y", 3)])
        assert g.canonical_atoms() == frozenset({eq("x", 3), eq("y", 3)})

    def test_constant_constant_edges_implicit(self):
        g = BoundsMatrix([le(1, "x"), le("x", 2)])
        assert g.canonical_atoms() == frozenset({le(1, "x"), le("x", 2)})

    def test_equivalent_conjunctions_same_canonical_form(self):
        a = BoundsMatrix([le("x", "y"), le("y", "x")])
        b = BoundsMatrix([eq("x", "y")])
        assert a.canonical_atoms() == b.canonical_atoms()

    def test_redundant_constant_bound_dropped(self):
        g = BoundsMatrix([lt("x", 1), lt("x", 2)])
        assert g.canonical_atoms() == frozenset({lt("x", 1)})

    def test_bound_through_variable_dropped(self):
        g = BoundsMatrix([lt("x", "y"), lt("y", 5), lt("x", 5)])
        assert g.canonical_atoms() == frozenset({lt("x", "y"), lt("y", 5)})


class TestSolve:
    def test_unsat_returns_none(self):
        assert BoundsMatrix([lt("x", "y"), lt("y", "x")]).solve() is None

    def test_witness_satisfies_all_atoms(self):
        atoms = [lt("x", "y"), le("y", "z"), lt(0, "x"), lt("z", 1)]
        witness = BoundsMatrix(atoms).solve()
        assert witness is not None
        for a in atoms:
            assert a.evaluate(witness)

    def test_pinned_variable(self):
        witness = BoundsMatrix([eq("x", Fraction(7, 2))]).solve()
        assert witness == {Var("x"): Fraction(7, 2)}

    def test_unconstrained_variable_gets_value(self):
        witness = BoundsMatrix([le("x", "x") if False else lt("x", "y")]).solve()
        assert set(witness) == {Var("x"), Var("y")}

    @settings(max_examples=200)
    @given(conjunctions(max_size=6))
    def test_solve_iff_satisfiable(self, atoms):
        atoms = [a for a in atoms if not isinstance(a, bool)]
        g = BoundsMatrix(atoms)
        witness = g.solve()
        if g.is_satisfiable():
            assert witness is not None
            for a in atoms:
                assert a.evaluate(witness), f"{a} fails under {witness}"
        else:
            assert witness is None

    @settings(max_examples=200)
    @given(conjunctions(min_size=1, max_size=6))
    def test_canonical_form_equivalent(self, atoms):
        """The canonical atom set entails and is entailed by the original."""
        atoms = [a for a in atoms if not isinstance(a, bool)]
        g = BoundsMatrix(atoms)
        if not g.is_satisfiable():
            return
        canon = g.canonical_atoms()
        h = BoundsMatrix(canon)
        for a in atoms:
            assert h.implies(a), f"canonical form lost {a}"
        for a in canon:
            assert g.implies(a), f"canonical form invented {a}"
