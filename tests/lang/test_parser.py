"""Unit tests for the FO / Datalog parsers."""

from fractions import Fraction

import pytest

from repro.core.atoms import eq, le, lt, ne
from repro.core.database import Database
from repro.core.evaluator import evaluate, evaluate_boolean
from repro.core.formula import (
    And,
    Constraint,
    Exists,
    ForAll,
    Not,
    Or,
    RelationAtom,
    constraint,
    exists,
    rel,
)
from repro.core.relation import Relation
from repro.core.terms import Const, Var
from repro.core.theory import DENSE_ORDER
from repro.datalog.engine import evaluate_program
from repro.errors import DatalogError, ParseError
from repro.lang import parse_formula, parse_program, parse_term


class TestTerms:
    def test_variable(self):
        assert parse_term("x") == Var("x")

    def test_integer(self):
        assert parse_term("5") == Const(Fraction(5))

    def test_rational(self):
        assert parse_term("22/7") == Const(Fraction(22, 7))

    def test_negative(self):
        assert parse_term("-3") == Const(Fraction(-3))

    def test_trailing_junk_rejected(self):
        with pytest.raises(ParseError):
            parse_term("x y")

    def test_zero_denominator_rejected(self):
        with pytest.raises(ParseError, match="zero denominator"):
            parse_term("-3/0")


class TestFormulaStructure:
    def test_atom(self):
        assert parse_formula("x < y") == constraint(lt("x", "y"))

    def test_all_operators(self):
        assert parse_formula("x <= 1") == constraint(le("x", 1))
        assert parse_formula("x = y") == constraint(eq("x", "y"))
        assert parse_formula("x != 0") == constraint(ne("x", 0))
        assert parse_formula("x > y") == constraint(lt("y", "x"))

    def test_relation_atom(self):
        assert parse_formula("R(x, 3)") == RelationAtom(
            "R", (Var("x"), Const(Fraction(3)))
        )

    def test_zero_ary_relation(self):
        assert parse_formula("Flag()") == RelationAtom("Flag", ())

    def test_precedence_and_over_or(self):
        f = parse_formula("a < 1 or b < 1 and c < 1")
        assert isinstance(f, Or)
        assert isinstance(f.subs[1], And)

    def test_not_binds_tight(self):
        f = parse_formula("not R(x) and S(x)")
        assert isinstance(f, And)
        assert isinstance(f.subs[0], Not)

    def test_quantifier_multi_vars(self):
        f = parse_formula("exists x, y (x < y)")
        assert isinstance(f, Exists)
        assert f.variables == (Var("x"), Var("y"))

    def test_quantifier_scope_is_next_unary(self):
        f = parse_formula("exists x R(x) and S(y)")
        # exists binds only R(x); conjunction at top level
        assert isinstance(f, And)
        assert isinstance(f.subs[0], Exists)

    def test_implies_right_associative(self):
        f = parse_formula("a < 1 implies b < 1 implies c < 1")
        # a -> (b -> c)
        assert isinstance(f, Or)

    def test_parentheses(self):
        f = parse_formula("(a < 1 or b < 1) and c < 1")
        assert isinstance(f, And)

    def test_true_false(self):
        from repro.core.formula import FALSE, TRUE

        assert parse_formula("true") is TRUE
        assert parse_formula("false") is FALSE

    def test_errors(self):
        for bad in ("exists (x)", "R(x", "x <", "and x < 1", "x < 1 extra"):
            with pytest.raises(ParseError):
                parse_formula(bad)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ParseError, match="zero denominator.*position 13"):
            parse_formula("E(x) and x < 1/0")


class TestFormulaSemantics:
    def test_parsed_equals_constructed(self):
        parsed = parse_formula("exists y (T(x, y) and y < 5)")
        built = exists("y", rel("T", "x", "y") & constraint(lt("y", 5)))
        db = Database()
        db["T"] = Relation.from_atoms(
            ("x", "y"), [[le("x", "y"), le(0, "x"), le("y", 10)]], DENSE_ORDER
        )
        assert evaluate(parsed, db).equivalent(evaluate(built, db))

    def test_density_sentence(self):
        f = parse_formula("forall a, b (a < b implies exists m (a < m and m < b))")
        assert evaluate_boolean(f)


class TestProgramParsing:
    def test_transitive_closure(self):
        p = parse_program(
            """
            tc(x, y) :- e(x, y).
            tc(x, z) :- tc(x, y), e(y, z).
            """
        )
        assert p.edb == {"e": 2}
        assert p.idb == {"tc": 2}
        db = Database()
        db["e"] = Relation.from_points(("x", "y"), [(1, 2), (2, 3)])
        result = evaluate_program(p, db)
        assert result["tc"].contains_point([1, 3])

    def test_negation_and_constraints(self):
        p = parse_program(
            """
            stage1().
            stage2() :- stage1().
            big(x) :- s(x), 10 < x.
            small(x) :- s(x), not big(x), stage2().
            """
        )
        db = Database()
        db["s"] = Relation.from_points(("x",), [(5,), (15,)])
        result = evaluate_program(p, db)
        assert result["small"].contains_point([5])
        assert not result["small"].contains_point([15])

    def test_facts(self):
        p = parse_program("flag().")
        assert p.idb == {"flag": 0}

    def test_comments(self):
        p = parse_program(
            """
            % closure
            tc(x, y) :- e(x, y).  % base
            """
        )
        assert len(p.rules) == 1

    def test_arity_conflict_rejected(self):
        with pytest.raises((ParseError, DatalogError)):
            parse_program("h(x) :- e(x), e(x, y).")

    def test_dangling_not_rejected(self):
        with pytest.raises(ParseError):
            parse_program("h(x) :- not x < 1.")

    def test_missing_dot_rejected(self):
        with pytest.raises(ParseError):
            parse_program("h(x) :- e(x)")

    def test_zero_denominator_rejected(self):
        with pytest.raises(ParseError, match="zero denominator"):
            parse_program("h(x) :- e(x), x < 1/0.")
