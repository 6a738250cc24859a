"""Unit tests for generalized tuples."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.atoms import eq, le, lt
from repro.core.gtuple import GTuple, check_schema
from repro.core.terms import Const, Var
from repro.core.theory import DENSE_ORDER
from repro.errors import SchemaError
from repro.linear.latoms import lin_eq, lin_le
from repro.linear.theory import LINEAR
from tests.linear.test_theory import linear_conjunctions
from tests.strategies import conjunctions


def make(schema, atoms=()):
    return GTuple.make(DENSE_ORDER, schema, atoms)


class TestCheckSchema:
    def test_valid(self):
        assert check_schema(["x", "y"]) == ("x", "y")

    def test_duplicate_rejected(self):
        with pytest.raises(SchemaError):
            check_schema(["x", "x"])

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            check_schema([""])


class TestMake:
    def test_paper_triangle(self):
        """The paper's binary generalized tuple x <= y and x >= 0 and y <= 10."""
        t = make(("x", "y"), [le("x", "y"), le(0, "x"), le("y", 10)])
        assert t is not None
        assert t.arity == 2
        assert t.contains_point([Fraction(1), Fraction(5)])
        assert not t.contains_point([Fraction(5), Fraction(1)])
        assert not t.contains_point([Fraction(-1), Fraction(5)])

    def test_unsatisfiable_returns_none(self):
        assert make(("x",), [lt("x", 0), lt(1, "x")]) is None

    def test_true_atoms_dropped(self):
        t = make(("x",), [True, le("x", 1)])
        assert t.atoms == frozenset({le("x", 1)})

    def test_false_atom_returns_none(self):
        assert make(("x",), [False]) is None

    def test_non_schema_variable_rejected(self):
        with pytest.raises(SchemaError):
            make(("x",), [lt("x", "y")])

    def test_equivalent_conjunctions_equal(self):
        a = make(("x", "y"), [le("x", "y"), le("y", "x")])
        b = make(("x", "y"), [eq("x", "y")])
        assert a == b
        assert hash(a) == hash(b)

    def test_universe(self):
        u = GTuple.universe(DENSE_ORDER, ("x", "y"))
        assert u.atoms == frozenset()
        assert u.contains_point([Fraction(100), Fraction(-100)])

    def test_point(self):
        p = GTuple.point(DENSE_ORDER, ("x", "y"), [1, 2])
        assert p.contains_point([Fraction(1), Fraction(2)])
        assert not p.contains_point([Fraction(1), Fraction(3)])


class TestProjectOut:
    def test_density_used(self):
        """exists y (x < y and y < z)  <=>  x < z  (density of Q)."""
        t = make(("x", "y", "z"), [lt("x", "y"), lt("y", "z")])
        [p] = t.project_out_all("y")
        assert p.schema == ("x", "z")
        assert p.atoms == frozenset({lt("x", "z")})

    def test_weak_bounds_compose_weakly(self):
        t = make(("x", "y", "z"), [le("x", "y"), le("y", "z")])
        [p] = t.project_out_all("y")
        assert p.atoms == frozenset({le("x", "z")})

    def test_mixed_bounds_compose_strictly(self):
        t = make(("x", "y", "z"), [le("x", "y"), lt("y", "z")])
        [p] = t.project_out_all("y")
        assert p.atoms == frozenset({lt("x", "z")})

    def test_no_endpoints_one_sided_vanishes(self):
        """exists y (y < x) is true for every x: Q has no least element."""
        t = make(("x", "y"), [lt("y", "x")])
        [p] = t.project_out_all("y")
        assert p.atoms == frozenset()

    def test_pinned_variable_substituted(self):
        t = make(("x", "y"), [eq("y", 3), lt("x", "y")])
        [p] = t.project_out_all("y")
        assert p.atoms == frozenset({lt("x", 3)})

    def test_pinned_to_variable(self):
        t = make(("x", "y", "z"), [eq("y", "x"), lt("y", "z")])
        [p] = t.project_out_all("y")
        assert p.atoms == frozenset({lt("x", "z")})

    def test_unknown_column_raises(self):
        t = make(("x",), [])
        with pytest.raises(SchemaError):
            t.project_out_all("q")

    @settings(max_examples=150)
    @given(conjunctions(max_size=5))
    def test_projection_preserves_satisfiability(self, atoms):
        """A satisfiable tuple projects to a satisfiable tuple, and points
        in the projection extend to points in the original (checked via
        the witness of the projection)."""
        names = sorted({v.name for a in atoms if not isinstance(a, bool) for v in a.variables})
        if "x" not in names:
            return
        t = make(tuple(names), [a for a in atoms if not isinstance(a, bool)])
        if t is None:
            return
        results = t.project_out_all("x")
        assert len(results) == 1
        [p] = results
        # soundness: any witness of p extends to a witness of t
        witness = p.sample_point()
        extended = dict(witness)
        # re-solve the original with the projection witness pinned
        pins = [eq(c, v) for c, v in witness.items()]
        pinned = t.conjoin(pins)
        assert pinned is not None, f"projection witness {witness} does not extend"


class TestTransforms:
    def test_rename(self):
        t = make(("x", "y"), [lt("x", "y")])
        r = t.rename({"x": "a", "y": "b"})
        assert r.schema == ("a", "b")
        assert r.atoms == frozenset({lt("a", "b")})

    def test_extend(self):
        t = make(("x",), [le("x", 1)])
        e = t.extend(("x", "y"))
        assert e.schema == ("x", "y")
        assert e.contains_point([Fraction(0), Fraction(99)])

    def test_extend_cannot_drop(self):
        t = make(("x", "y"), [])
        with pytest.raises(SchemaError):
            t.extend(("x",))

    def test_reorder(self):
        t = make(("x", "y"), [lt("x", "y")])
        r = t.reorder(("y", "x"))
        assert r.schema == ("y", "x")
        assert r.contains_point([Fraction(2), Fraction(1)])  # y=2, x=1

    def test_substitute_to_constant(self):
        t = make(("x", "y"), [lt("x", "y")])
        s = t.substitute({"y": Const(Fraction(3))})
        assert s.schema == ("x",)
        assert s.atoms == frozenset({lt("x", 3)})

    def test_substitute_unsatisfiable(self):
        t = make(("x",), [lt("x", 0)])
        assert t.substitute({"x": Const(Fraction(5))}) is None

    def test_merge(self):
        a = make(("x",), [le(0, "x")])
        b = make(("x",), [le("x", 1)])
        m = a.merge(b, ("x",))
        assert m.contains_point([Fraction(1, 2)])
        assert not m.contains_point([Fraction(2)])

    def test_merge_unsatisfiable(self):
        a = make(("x",), [lt("x", 0)])
        b = make(("x",), [lt(1, "x")])
        assert a.merge(b, ("x",)) is None


def _assert_merge_matches_make(theory, schema, conjunction_pairs):
    for left, right in conjunction_pairs:
        a, b = GTuple.make(theory, schema, left), GTuple.make(theory, schema, right)
        if a is None or b is None:
            continue
        made = GTuple.make(theory, schema, list(a.atoms) + list(b.atoms))
        merged = a.merge(b, schema)
        assert (merged is None) == (made is None)
        if made is not None:
            assert merged.atoms == made.atoms and merged.schema == made.schema


class TestMergeShortPath:
    """Over one schema ``merge`` skips ``make`` but must match it atom for atom."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(conjunctions(), conjunctions()), max_size=4))
    def test_dense_order_matches_make(self, pairs):
        _assert_merge_matches_make(DENSE_ORDER, ("x", "y", "z", "u", "v"), pairs)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(linear_conjunctions(), linear_conjunctions()), max_size=3))
    # LinearTheory.canonicalize prunes in atom order: x = 0 and
    # {x <= 0, 0 <= x} entail each other, so what it keeps depends on
    # which comes first
    @example([([lin_eq("x", 0)], [lin_le("x", 0), lin_le(0, "x")])])
    def test_linear_matches_make(self, pairs):
        _assert_merge_matches_make(LINEAR, ("x", "y"), pairs)

    def test_only_a_wider_schema_goes_through_make(self, monkeypatch):
        calls = []
        make_fn = GTuple.make.__func__

        def counting_make(cls, theory, schema, atoms=()):
            calls.append(tuple(schema))
            return make_fn(cls, theory, schema, atoms)

        a = make(("x", "y"), [le(0, "x")])
        b = make(("x", "y"), [lt("x", "y")])
        both = frozenset({le(0, "x"), lt("x", "y")})
        monkeypatch.setattr(GTuple, "make", classmethod(counting_make))
        assert a.merge(b, ("x", "y")).atoms == both
        assert calls == []
        wide = a.merge(b, ("x", "y", "z"))
        assert calls == [("x", "y", "z")]
        assert wide.schema == ("x", "y", "z") and wide.atoms == both


class TestSemantics:
    def test_sample_point_in_tuple(self):
        t = make(("x", "y"), [lt("x", "y"), lt(0, "x"), lt("y", 1)])
        pt = t.sample_point()
        assert t.contains_point([pt["x"], pt["y"]])

    def test_entails(self):
        t = make(("x", "y"), [lt("x", 0), lt(0, "y")])
        assert t.entails(lt("x", "y"))
        assert not t.entails(eq("x", "y"))

    def test_constants(self):
        t = make(("x",), [le(0, "x"), le("x", Fraction(7, 2))])
        assert t.constants() == {Fraction(0), Fraction(7, 2)}
