"""The rewritten hot paths against their straight-line references.

``Relation._absorb`` (hash dedup + subsumption pruning, and delta
absorption behind an absorbed prefix) and ``Relation.join``
(pinned-constant partition index) must produce byte-identical output
to the original quadratic algorithms on random inputs — not just
equivalent pointsets, the same tuples in the same order, so downstream
syntactic fixpoint tests see no difference.
``GTuple.rename`` (canonical atoms renamed without the kernel) must
return the very tuple ``GTuple.make`` builds from the renamed atoms,
and keep the pointset.
"""

import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.atoms import eq, lt
from repro.core.gtuple import GTuple, rename_substitution
from repro.core.relation import Relation, _absorb, _join_partition
from repro.core.sampling import sample_points
from repro.core.terms import Var
from repro.core.theory import DENSE_ORDER
from repro.linear.theory import LINEAR
from repro.perf import kernel_cache_disabled
from tests.linear.test_theory import linear_conjunctions
from tests.strategies import conjunctions

SCHEMA = ("x", "y", "z", "u", "v")


@st.composite
def gtuples(draw):
    made = GTuple.make(DENSE_ORDER, SCHEMA, draw(conjunctions(max_size=4)))
    if made is None:  # unsatisfiable draw: fall back to the universe
        return GTuple.universe(DENSE_ORDER, SCHEMA)
    return made


@st.composite
def linear_gtuples(draw):
    schema = ("x", "y")
    made = GTuple.make(LINEAR, schema, draw(linear_conjunctions(max_atoms=3)))
    return GTuple.universe(LINEAR, schema) if made is None else made


def reference_absorb(tuples):
    """The pre-optimization algorithm, verbatim."""
    distinct = []
    for t in tuples:
        if t not in distinct:
            distinct.append(t)

    def subsumes(s, t):
        return all(t.entails(a) for a in s.atoms)

    kept = []
    for i, t in enumerate(distinct):
        absorbed = False
        for j, s in enumerate(distinct):
            if i == j or not subsumes(s, t):
                continue
            if subsumes(t, s) and j > i:
                continue
            absorbed = True
            break
        if not absorbed:
            kept.append(t)
    return kept


def reference_join(left, right):
    """The pre-optimization nested-loop join, verbatim."""
    combined = left.schema + tuple(c for c in right.schema if c not in left.schema)
    out = []
    for a in left.tuples:
        wide_a = a.extend(combined)
        for b in right.tuples:
            merged = wide_a.merge(b.extend(combined).reorder(combined), combined)
            if merged is not None:
                out.append(merged)
    return Relation(left.theory, combined, out)


class TestAbsorbMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(gtuples(), max_size=7))
    def test_same_kept_tuples_in_same_order(self, tuples):
        assert _absorb(list(tuples)) == reference_absorb(tuples)

    def test_universe_fast_path(self):
        u = GTuple.universe(DENSE_ORDER, SCHEMA)
        from repro.core.atoms import lt

        t = GTuple.make(DENSE_ORDER, SCHEMA, [lt("x", "y")])
        assert _absorb([t, u, t]) == reference_absorb([t, u, t]) == [u]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(gtuples(), max_size=5), st.lists(gtuples(), max_size=5))
    def test_absorbed_prefix_keeps_the_same_tuples(self, old, new):
        """Delta absorption: an absorbed stage followed by new tuples
        keeps the reference's tuples in the reference's order."""
        base = _absorb(list(old))
        expected = reference_absorb(base + new)
        assert _absorb(base + new, len(base)) == expected
        with kernel_cache_disabled():
            assert _absorb(base + new, len(base)) == expected

    @settings(max_examples=30, deadline=None)
    @given(st.lists(linear_gtuples(), max_size=4), st.lists(linear_gtuples(), max_size=4))
    def test_absorbed_linear_prefix_keeps_the_full_pass(self, old, new):
        """Linear tuples are not canonical, so distinct tuples can denote
        one pointset: the reference breaks that tie by position,
        ``_absorb`` by rendering, so the full pass is the reference."""
        base = _absorb(list(old))
        assert _absorb(base + new, len(base)) == _absorb(base + new)


@st.composite
def point_relations(draw, schema):
    """Mostly classical tuples plus some unpinned interval tuples."""
    from repro.core.atoms import le

    points = draw(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5)),
            min_size=0,
            max_size=8,
        )
    )
    tuples = [GTuple.point(DENSE_ORDER, schema, p) for p in points]
    for bound in draw(st.lists(st.integers(0, 5), max_size=2)):
        tuples.append(GTuple.make(DENSE_ORDER, schema, [le(schema[0], bound)]))
    return Relation(DENSE_ORDER, schema, tuples)


class TestJoinMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(point_relations(("x", "y")), point_relations(("y", "z")))
    def test_shared_column_join(self, left, right):
        assert left.join(right).tuples == reference_join(left, right).tuples

    @settings(max_examples=30, deadline=None)
    @given(point_relations(("x", "y")), point_relations(("x", "y")))
    def test_same_schema_join(self, left, right):
        assert left.join(right).tuples == reference_join(left, right).tuples

    @settings(max_examples=20, deadline=None)
    @given(point_relations(("x", "y")), point_relations(("u", "v")))
    def test_cross_product_join(self, left, right):
        assert left.join(right).tuples == reference_join(left, right).tuples

    def test_partition_declines_small_inputs(self):
        small = Relation.from_points(("x", "y"), [(0, 1)])
        assert _join_partition(small, small) is None

    def test_partition_used_on_point_sets(self):
        edges = Relation.from_points(("x", "y"), [(i, i + 1) for i in range(6)])
        other = Relation.from_points(("y", "z"), [(i, i + 2) for i in range(6)])
        partition = _join_partition(edges, other)
        assert partition is not None
        buckets, unpinned, pins = partition
        assert unpinned == ()
        assert all(p is not None for p in pins)


class TestTrustedConstructor:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(gtuples(), max_size=6))
    def test_matches_validating_constructor(self, tuples):
        checked = Relation(DENSE_ORDER, SCHEMA, tuples)
        trusted = Relation._trusted(DENSE_ORDER, SCHEMA, tuples)
        assert trusted.tuples == checked.tuples
        assert trusted.schema == checked.schema


#: rename targets: the schema itself plus names sorting before and after
#: it, so renamings swap columns and reverse their name order
RENAME_POOL = SCHEMA + ("a", "w0", "zz")


@st.composite
def renamings(draw):
    """An injective renaming of SCHEMA into RENAME_POOL."""
    targets = draw(st.permutations(RENAME_POOL))[: len(SCHEMA)]
    return dict(zip(SCHEMA, targets))


@st.composite
def rename_gtuples(draw):
    """Like gtuples(), but half of them force two columns equal, so
    constant-free equality classes (``Var = Var`` atoms) are common."""
    atoms = draw(conjunctions(max_size=4))
    if draw(st.booleans()):
        left, right = draw(st.permutations(SCHEMA))[:2]
        atoms.append(eq(left, right))
    made = GTuple.make(DENSE_ORDER, SCHEMA, atoms)
    return made if made is not None else GTuple.universe(DENSE_ORDER, SCHEMA)


class TestRenameMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(rename_gtuples(), renamings())
    def test_rename_is_make_of_the_renamed_atoms(self, t, mapping):
        subst = rename_substitution(mapping)
        new_schema = tuple(mapping[c] for c in SCHEMA)
        renamed = t.rename(mapping)
        reference = GTuple.make(
            DENSE_ORDER, new_schema, [a.substitute(subst) for a in t.atoms]
        )
        assert renamed is reference
        with kernel_cache_disabled():
            assert t.rename(mapping) == renamed

    @settings(max_examples=60, deadline=None)
    @given(rename_gtuples(), renamings())
    def test_rename_keeps_the_pointset(self, t, mapping):
        renamed = t.rename(mapping)
        # rename keeps column positions, so a point of t renamed is the
        # same vector of values over the new schema; columns no atom
        # mentions are unconstrained and stay at one sample value
        points = sample_points(t.constants() or {Fraction(0)})
        mentioned = DENSE_ORDER.conjunction_variables(t.atoms)
        free = [i for i, c in enumerate(SCHEMA) if Var(c) in mentioned]
        for values in itertools.product(points, repeat=len(free)):
            point = [points[0]] * len(SCHEMA)
            for i, value in zip(free, values):
                point[i] = value
            assert t.contains_point(point) == renamed.contains_point(point)

    def test_var_var_class_takes_the_make_path(self):
        # {x, y} is one class with representative x; renamed, b = a has
        # representative a, so the bound moves from b to a
        t = GTuple.make(DENSE_ORDER, ("x", "y"), [eq("x", "y"), lt("y", 3)])
        assert t.atoms == {eq("x", "y"), lt("x", 3)}
        mapping = {"x": "b", "y": "a"}
        assert DENSE_ORDER.rename_canonical(t.atoms, rename_substitution(mapping)) is None
        renamed = t.rename(mapping)
        assert renamed.atoms == {eq("a", "b"), lt("a", 3)}
        assert renamed is GTuple.make(DENSE_ORDER, ("b", "a"), [eq("a", "b"), lt("b", 3)])

    def test_disabled_cache_takes_the_make_path(self):
        t = GTuple.make(DENSE_ORDER, ("x", "y"), [lt("x", "y"), lt("y", 3)])
        subst = rename_substitution({"x": "y", "y": "x"})
        assert DENSE_ORDER.rename_canonical(t.atoms, subst) == {lt("y", "x"), lt("x", 3)}
        with kernel_cache_disabled():
            assert DENSE_ORDER.rename_canonical(t.atoms, subst) is None

    def test_linear_tuple_takes_the_make_path(self):
        from repro.linear.latoms import lin_le, lin_lt
        from repro.linear.theory import LINEAR

        t = GTuple.make(
            LINEAR, ("x", "y"), [lin_le({"x": 1, "y": 1}, 1), lin_lt(0, "x")]
        )
        mapping = {"x": "y", "y": "x"}
        subst = rename_substitution(mapping)
        assert LINEAR.rename_canonical(t.atoms, subst) is None
        renamed = t.rename(mapping)
        assert renamed is GTuple.make(
            LINEAR, ("y", "x"), [LINEAR.substitute_atom(a, subst) for a in t.atoms]
        )
        assert renamed.contains_point([Fraction(1, 4), Fraction(1, 2)])
        assert not renamed.contains_point([Fraction(0), Fraction(1, 2)])
