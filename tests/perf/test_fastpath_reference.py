"""The rewritten hot paths against their straight-line references.

``Relation._absorb`` (hash dedup + subsumption pruning, and delta
absorption behind an absorbed prefix) and ``Relation.join``
(pinned-constant partition index) must produce byte-identical output
to the original quadratic algorithms on random inputs — not just
equivalent pointsets, the same tuples in the same order, so downstream
syntactic fixpoint tests see no difference.
``GTuple.rename`` (canonical atoms renamed without the kernel) must
return the very tuple ``GTuple.make`` builds from the renamed atoms,
and keep the pointset.  ``Relation.rename`` and ``Relation.project``
served from the operation memo must return the seed path's tuples in
the seed path's order, cold and warm.  ``Relation.complement``, which
passes settled parents through a stage unsplit, must return the full
DNF product's tuples in its order, charge the guard no more than it,
denote the pointwise complement, and do a fraction of its work.
"""

import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.atoms import eq, le, lt
from repro.core.database import Database
from repro.core.formula import rel
from repro.core.gtuple import GTuple, rename_substitution
from repro.core.relation import Relation, _absorb, _join_partition
from repro.core.sampling import eval_at, sample_points
from repro.core.terms import Var
from repro.core.theory import DENSE_ORDER, DenseOrderTheory
from repro.linear.latoms import lin_le, lin_lt
from repro.linear.theory import LINEAR
from repro.perf import (
    configure_kernel_cache,
    kernel_cache_disabled,
    kernel_counters,
    kernel_stats,
    reset_kernel_cache,
)
from repro.perf.cache import DEFAULT_CAPACITY
from repro.runtime.guard import EvaluationGuard, active_guard
from repro.workloads.generators import fragmented_interval_database
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


def reference_complement(relation):
    """The complement before settled parents, verbatim (fault point
    aside): every parent is split on every negated atom, and each stage
    is absorbed in full."""
    theory, schema = relation.theory, relation.schema
    guard = active_guard()
    if guard is not None:
        guard.note("relation.complement")
    partial = [GTuple.universe(theory, schema)]
    for t in sorted(relation.tuples, key=lambda t: sorted(str(a) for a in t.atoms)):
        if not t.atoms:
            return Relation._trusted(theory, schema, ())
        negated = []
        for a in sorted(t.atoms, key=str):
            negated.extend(theory.negate_atom(a))
        grown = []
        for p in partial:
            if guard is not None:
                guard.tick("relation.complement")
            for neg in negated:
                ext = p.conjoin([neg])
                if ext is not None:
                    grown.append(ext)
        if guard is not None:
            guard.on_tuples(len(grown), "relation.complement")
        partial = _absorb(grown)
        if not partial:
            return Relation._trusted(theory, schema, ())
    result = Relation._trusted(theory, schema, partial)
    if guard is not None:
        guard.check_atoms(result, "relation.complement")
    return result


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


@st.composite
def projections(draw):
    """The columns a projection keeps: a prefix of a permutation of SCHEMA."""
    order = draw(st.permutations(SCHEMA))
    return tuple(order[: draw(st.integers(0, len(SCHEMA) - 1))])


#: the counters a warm memo must leave alone: its hits skip the kernel
KERNEL_LOOKUPS = ("cache.hits", "cache.misses", "memo.misses")


def _moved(before, after):
    return {name for name in after if after[name] != before[name]}


class TestOperationMemoMatchesReference:
    """``Relation.rename`` and ``Relation.project`` through the memo."""

    def _check(self, relation, op):
        """``op`` on a cold memo, a warm one and the seed path agree."""
        with kernel_cache_disabled():
            before = kernel_counters()
            reference = op(relation).tuples
            assert _moved(before, kernel_counters()) == set()
        reset_kernel_cache()
        assert op(relation).tuples == reference
        before = kernel_counters()
        assert op(relation).tuples == reference
        moved = _moved(before, kernel_counters())
        assert not moved & set(KERNEL_LOOKUPS)
        return "memo.hits" in moved

    @settings(max_examples=60, deadline=None)
    @given(st.lists(gtuples(), max_size=6), renamings())
    def test_rename(self, tuples, mapping):
        relation = Relation(DENSE_ORDER, SCHEMA, tuples)
        served = self._check(relation, lambda r: r.rename(mapping))
        assert served == bool(relation.tuples)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(gtuples(), max_size=6), projections())
    def test_project(self, tuples, columns):
        relation = Relation(DENSE_ORDER, SCHEMA, tuples)
        served = self._check(relation, lambda r: r.project(columns))
        assert served == bool(relation.tuples)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(gtuples(), min_size=1, max_size=6), renamings(), renamings(),
           projections(), projections())
    def test_parameters_key_their_own_tables(self, tuples, first, second, keep_a, keep_b):
        """One warm memo serves two renamings and two projections of the
        same tuples, each with the seed path's results."""
        relation = Relation(DENSE_ORDER, SCHEMA, tuples)
        ops = [lambda r, m=m: r.rename(m) for m in (first, second)] + [
            lambda r, c=c: r.project(c) for c in (keep_a, keep_b)
        ]
        with kernel_cache_disabled():
            expected = [op(relation).tuples for op in ops]
        reset_kernel_cache()
        for _ in range(2):
            assert [op(relation).tuples for op in ops] == expected

    @settings(max_examples=30, deadline=None)
    @given(st.lists(gtuples(), max_size=6), renamings(), projections())
    def test_capacity_bounds_the_memo(self, tuples, mapping, columns):
        relation = Relation(DENSE_ORDER, SCHEMA, tuples)
        with kernel_cache_disabled():
            renamed = relation.rename(mapping).tuples
            projected = relation.project(columns).tuples
        reset_kernel_cache()
        configure_kernel_cache(capacity=4)
        try:
            for _ in range(2):
                assert relation.rename(mapping).tuples == renamed
                assert kernel_stats()["memo.entries"] <= 4
                assert relation.project(columns).tuples == projected
                assert kernel_stats()["memo.entries"] <= 4
        finally:
            configure_kernel_cache(capacity=DEFAULT_CAPACITY)

    def test_reset_empties_the_memo(self):
        relation = Relation(DENSE_ORDER, SCHEMA, [
            GTuple.make(DENSE_ORDER, SCHEMA, [lt("x", "y"), lt("y", 3)]),
            GTuple.point(DENSE_ORDER, SCHEMA, (1, 2, 3, 4, 5)),
        ])
        reset_kernel_cache()
        relation.rename({"x": "a"})
        relation.project(("y", "z"))
        stats = kernel_stats()
        assert stats["memo.entries"] > 0
        reset_kernel_cache()
        stats = kernel_stats()
        assert (stats["memo.entries"], stats["memo.hits"], stats["memo.misses"]) == (0, 0, 0)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(linear_gtuples(), min_size=1, max_size=4))
    def test_linear_relations_never_touch_the_memo(self, tuples):
        relation = Relation(LINEAR, ("x", "y"), tuples)
        reset_kernel_cache()
        for _ in range(2):
            relation.rename({"x": "y", "y": "x"})
            relation.project(("y",))
        stats = kernel_stats()
        assert (stats["memo.entries"], stats["memo.hits"], stats["memo.misses"]) == (0, 0, 0)


#: complement inputs: up to three columns over the constants 0..4
COMPLEMENT_COLUMNS = ("x", "y", "z")


@st.composite
def complement_atoms(draw, schema):
    """A bound ``column op c`` or ``c op column``, or, over two or more
    columns, a ``Var < Var`` or ``Var = Var`` atom."""
    left = draw(st.sampled_from(schema))
    if len(schema) > 1 and draw(st.booleans()):
        right = draw(st.sampled_from([c for c in schema if c != left]))
        return draw(st.sampled_from([lt, eq]))(left, right)
    op = draw(st.sampled_from([lt, le, eq]))
    value = draw(st.integers(0, 4))
    return op(left, value) if draw(st.booleans()) else op(value, left)


@st.composite
def complement_relations(draw, min_columns=1, points=True):
    """Dense-order relations of points, intervals and order atoms."""
    schema = COMPLEMENT_COLUMNS[: draw(st.integers(min_columns, 3))]
    tuples = []
    for _ in range(draw(st.integers(0, 5))):
        if points and draw(st.integers(0, 3)) == 0:
            values = draw(st.lists(st.integers(0, 4), min_size=len(schema),
                                   max_size=len(schema)))
            tuples.append(GTuple.point(DENSE_ORDER, schema, values))
            continue
        made = GTuple.make(
            DENSE_ORDER, schema,
            draw(st.lists(complement_atoms(schema), min_size=1, max_size=3)),
        )
        if made is not None:
            tuples.append(made)
    return Relation(DENSE_ORDER, schema, tuples)


@st.composite
def linear_relations(draw):
    return Relation(LINEAR, ("x", "y"), draw(st.lists(linear_gtuples(), max_size=4)))


def _grid(schema, constants):
    """Points of every order type over ``constants``: each column's
    values are the sample points of the constants and the columns
    before it, as the sampling semantics picks them."""
    points = [()]
    for _ in schema:
        points = [
            point + (value,)
            for point in points
            for value in sample_points(set(constants) | set(point))
        ]
    return points


def _materialized(relation, complement):
    guard = EvaluationGuard()
    with guard:
        complement(relation)
    return guard.tuples_materialized


class TestComplementMatchesReference:
    """Settled parents pass a stage whole; the output is the full
    product's, tuple for tuple and in order."""

    @settings(max_examples=150, deadline=None)
    @given(complement_relations())
    def test_same_tuples_in_same_order(self, relation):
        expected = reference_complement(relation).tuples
        assert relation.complement().tuples == expected
        with kernel_cache_disabled():
            assert relation.complement().tuples == reference_complement(relation).tuples
            assert relation.complement().tuples == expected

    @settings(max_examples=40, deadline=None)
    @given(linear_relations())
    def test_same_linear_tuples_in_same_order(self, relation):
        assert relation.complement().tuples == reference_complement(relation).tuples

    def test_linear_parents_are_never_settled(self):
        """Linear tuples are not canonical: the last stage's parent
        ``x <= 0, x < y, 0 <= x + y`` entails the negated ``0 < y``, but
        its piece with it drops ``x < y``, and that piece, not the
        parent, is what the full product keeps."""
        schema = ("x", "y")
        relation = Relation(LINEAR, schema, [
            GTuple.make(LINEAR, schema, [a]) for a in (
                lin_le("y", "x"), lin_le("y", 0), lin_lt(0, "x"),
                lin_lt({"x": 1, "y": 1}, 0),
            )
        ])
        expected = reference_complement(relation)
        assert relation.complement().tuples == expected.tuples
        [kept] = expected.tuples
        assert lin_lt(0, "y") in kept.atoms
        assert lin_lt("x", "y") not in kept.atoms

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(complement_relations(), linear_relations()))
    def test_guard_charges_no_more_than_the_product(self, relation):
        charged = _materialized(relation, Relation.complement)
        product = _materialized(relation, reference_complement)
        assert charged <= product
        if relation.arity == 1:
            # a unary tuple's negated atoms are disjoint rays, so the
            # product splits a settled parent into exactly one piece
            assert charged == product

    @settings(max_examples=40, deadline=None)
    @given(complement_relations(min_columns=2, points=False))
    def test_complement_is_the_pointwise_negation(self, relation):
        db = Database()
        db["R"] = relation
        db["C"] = relation.complement()
        schema = relation.schema
        for point in _grid(schema, relation.constants()):
            env = dict(zip(map(Var, schema), point))
            assert eval_at(rel("C", *schema), db, env) != eval_at(rel("R", *schema), db, env)

    def test_settled_parents_cut_the_work(self, monkeypatch):
        """30 disjoint intervals: each stage splits only the one parent
        that overlaps the next interval."""
        counts = {"entails": 0, "canonical": 0}
        entails = GTuple.entails
        canonical = DenseOrderTheory.canonicalize_if_satisfiable

        def counted_entails(t, a):
            counts["entails"] += 1
            return entails(t, a)

        def counted_canonical(theory, conjunction):
            counts["canonical"] += 1
            return canonical(theory, conjunction)

        monkeypatch.setattr(GTuple, "entails", counted_entails)
        monkeypatch.setattr(
            DenseOrderTheory, "canonicalize_if_satisfiable", counted_canonical
        )
        relation = fragmented_interval_database(30)["S"]
        work = {}
        for name, complement in (
            ("settled", Relation.complement), ("product", reference_complement)
        ):
            counts.update(entails=0, canonical=0)
            work[name] = (complement(relation).tuples, dict(counts))
        assert work["settled"][0] == work["product"][0]
        assert len(work["settled"][0]) == 31
        settled, product = work["settled"][1], work["product"][1]
        assert 3 * settled["entails"] < product["entails"]
        assert settled["canonical"] < product["canonical"]
