"""Tests for the FO+ surface syntax."""

from fractions import Fraction

import pytest

from repro.core.database import Database
from repro.core.evaluator import evaluate, evaluate_boolean
from repro.core.formula import FALSE, TRUE, Constraint, Or
from repro.core.relation import Relation
from repro.errors import ParseError
from repro.lang import parse_linear_expression, parse_linear_formula
from repro.linear.latoms import LinExpr, lin_eq, lin_le
from repro.linear.theory import LINEAR


class TestExpressions:
    def test_single_variable(self):
        assert parse_linear_expression("x") == LinExpr.of_var("x")

    def test_coefficients(self):
        assert parse_linear_expression("2*x") == LinExpr.make({"x": 2})
        assert parse_linear_expression("1/2*x") == LinExpr.make({"x": Fraction(1, 2)})

    def test_sums_and_differences(self):
        e = parse_linear_expression("2*x - y + 3")
        assert e.coefficient("x") == 2
        assert e.coefficient("y") == -1
        assert e.const == 3

    def test_leading_minus(self):
        e = parse_linear_expression("-x + 1")
        assert e.coefficient("x") == -1
        assert e.const == 1

    def test_like_terms_collected(self):
        e = parse_linear_expression("x + x + x")
        assert e.coefficient("x") == 3

    def test_errors(self):
        for bad in ("x +", "* x", "2 * * x", "x y"):
            with pytest.raises(ParseError):
                parse_linear_expression(bad)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ParseError, match="zero denominator"):
            parse_linear_formula("2*x < 1/0")
        with pytest.raises(ParseError, match="zero denominator"):
            parse_linear_expression("0/0 * x")


class TestAtoms:
    def test_comparison_normalizes(self):
        f = parse_linear_formula("x + y <= 1")
        assert f == Constraint(lin_le({"x": 1, "y": 1}, 1))

    def test_flip_ge(self):
        assert parse_linear_formula("x >= y") == Constraint(lin_le({"y": 1}, {"x": 1}))

    def test_eq(self):
        assert parse_linear_formula("2*x = y") == Constraint(
            lin_eq({"x": 2}, {"y": 1})
        )

    def test_ne_splits(self):
        f = parse_linear_formula("x != y")
        assert isinstance(f, Or)
        assert len(f.subs) == 2

    def test_ground_folds(self):
        assert parse_linear_formula("1 < 2") is TRUE
        assert parse_linear_formula("2 < 1") is FALSE


class TestFormulas:
    @pytest.fixture
    def db(self):
        database = Database(theory=LINEAR)
        database["T"] = Relation.from_atoms(
            ("x", "y"),
            [[lin_le({"x": 1, "y": 1}, 1), lin_le(0, "x"), lin_le(0, "y")]],
            LINEAR,
        )
        return database

    def test_quantified_query(self, db):
        f = parse_linear_formula("exists y (T(x, y) and x + y >= 1/2)")
        out = evaluate(f, db, theory=LINEAR)
        assert out.contains_point([Fraction(1, 4)])
        assert not out.contains_point([2])

    def test_sentence(self, db):
        f = parse_linear_formula("forall x, y (T(x, y) implies x + y <= 1)")
        assert evaluate_boolean(f, db, theory=LINEAR)

    def test_midpoint_textual(self, db):
        db["S"] = Relation.from_points(("x",), [(0,), (4,)], LINEAR)
        f = parse_linear_formula("exists a, b (S(a) and S(b) and a + b = 2*z)")
        out = evaluate(f, db, theory=LINEAR)
        assert out.contains_point([2])
        assert not out.contains_point([1])

    def test_relation_args_are_plain_terms(self, db):
        with pytest.raises(ParseError):
            parse_linear_formula("T(x + 1, y)")
