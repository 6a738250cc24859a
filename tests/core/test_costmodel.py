"""The one plan estimator: per-node rows over rule-engine plans.
``repro plan`` prints these figures and ``ReorderJoin`` orders join
parts by them."""

from repro.core.costmodel import estimate_plan
from repro.core.database import Database
from repro.core.physical import render_plan
from repro.core.planner import (
    Absorb,
    Complement,
    Empty,
    Join,
    Scan,
    Shared,
    Union,
)
from repro.core.relation import Relation
from repro.core.terms import Var


class TestEstimatePlan:
    def _db(self):
        database = Database()
        database["S"] = Relation.from_points(("x",), [(i,) for i in range(6)])
        return database

    def test_scan_rows_come_from_the_database(self):
        db = self._db()
        est = estimate_plan(Scan("S", (Var("x"),)), db)
        assert est.rows == 6.0
        assert est.node == Scan("S", (Var("x"),))
        # unknown relations get a token default instead of crashing
        unknown = estimate_plan(Scan("Z", (Var("x"),)), db)
        assert unknown.rows == 8.0

    def test_join_rows_multiply_and_union_rows_add(self):
        db = self._db()
        s_x, s_y = Scan("S", (Var("x"),)), Scan("S", (Var("y"),))
        assert estimate_plan(Join((s_x, s_y, s_x)), db).rows == 6 ** 3
        assert estimate_plan(Union((s_x, s_x)), db).rows == 12

    def test_complement_rows_are_the_dnf_worst_case(self):
        db = self._db()
        s_x = Scan("S", (Var("x"),))
        assert estimate_plan(Complement(s_x), db).rows == 2 ** 6
        wide = Join((s_x, Scan("S", (Var("y"),))))
        assert estimate_plan(Complement(wide), db).rows == 2 ** 16

    def test_empty_has_no_rows(self):
        assert estimate_plan(Empty(("x",))).rows == 0

    def test_shared_subtrees_priced_once(self):
        db = self._db()
        sub = Join((Scan("S", (Var("x"),)), Scan("S", (Var("y"),))))
        plan = Union((Shared(sub), Shared(sub)))
        est = estimate_plan(plan, db)
        first, second = est.children
        assert not first.cached and second.cached
        assert not second.children
        assert second.rows == first.rows

    def test_absorb_estimate_does_not_inflate_rows(self):
        db = self._db()
        est = estimate_plan(Absorb(Scan("S", (Var("x"),))), db)
        assert est.rows <= 6.0

    def test_wide_join_of_complements_prices_past_the_float_range(self):
        # 64 parts of 2^16 rows each: 2^1024 exact rows, beyond a float
        db = self._db()
        part = Complement(Join((Scan("S", (Var("x"),)), Scan("S", (Var("y"),)))))
        plan = Join((part,) * 64)
        est = estimate_plan(plan, db)
        assert est.rows == 2 ** (16 * 64)
        assert f"est_rows={2 ** 1024}" in render_plan(plan, db)
