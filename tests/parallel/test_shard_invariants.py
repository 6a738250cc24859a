"""Metamorphic shard/merge invariants.

The parallel backend rests on one algebraic fact: a generalized
relation is the union of its generalized tuples, so *any* partition of
the tuple set evaluates correctly shard-by-shard for tuple-local
kernels.  These tests pin the metamorphic consequences directly,
without an oracle formula in the loop:

* ``shard_indices`` is a true partition (every index exactly once,
  order preserved inside a shard) for any count;
* shard -> evaluate -> merge equals the serial result for ``join``,
  ``project``, and ``simplify`` regardless of shard count or input
  tuple order;
* repartitioning a merged result and merging again is a fixpoint
  (absorption of an absorbed relation changes nothing).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.relation import Relation
from repro.parallel import ExecutionContext
from repro.parallel.shards import index_ranges, shard_indices, shard_skew, stable_digest

from tests.parallel.oracle import WORKER_COUNTS

SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

EDGES = [(i, i + 1) for i in range(10)] + [(0, 5), (3, 9), (7, 2)]


def edge_relation(edges=EDGES):
    return Relation.from_points(("x", "y"), edges)


def tuple_set(relation):
    """Order-insensitive syntactic fingerprint of a relation."""
    return sorted(sorted(str(a) for a in t.atoms) for t in relation.tuples)


@pytest.fixture()
def ctx_factory():
    made = []

    def make(workers):
        ctx = ExecutionContext(workers=workers, pool="thread", min_tuples=2)
        made.append(ctx)
        return ctx

    yield make
    for ctx in made:
        ctx.close()


# ------------------------------------------------------------- partitioning


class TestShardIndices:
    @SETTINGS
    @given(n=st.integers(min_value=1, max_value=9))
    def test_is_a_partition(self, n):
        tuples = edge_relation().tuples
        shards = shard_indices(tuples, n)
        flat = [i for shard in shards for i in shard]
        assert sorted(flat) == list(range(len(tuples)))
        assert len(shards) <= n
        assert all(shard for shard in shards)

    @SETTINGS
    @given(n=st.integers(min_value=1, max_value=9))
    def test_input_order_kept_within_shards(self, n):
        shards = shard_indices(edge_relation().tuples, n)
        for shard in shards:
            assert shard == sorted(shard)

    def test_sharding_is_deterministic(self):
        tuples = edge_relation().tuples
        assert shard_indices(tuples, 4) == shard_indices(tuples, 4)

    def test_equal_tuples_digest_equally(self):
        a = edge_relation().tuples
        b = edge_relation().tuples
        assert [stable_digest(t) for t in a] == [stable_digest(t) for t in b]

    @SETTINGS
    @given(
        total=st.integers(min_value=0, max_value=40),
        n=st.integers(min_value=1, max_value=9),
    )
    def test_index_ranges_cover_in_order(self, total, n):
        ranges = index_ranges(total, n)
        flat = [i for r in ranges for i in r]
        assert flat == list(range(total))
        assert len(ranges) <= n

    def test_shard_skew(self):
        assert shard_skew([[1, 2], [3, 4]]) == 1.0
        assert shard_skew([[1, 2, 3], [4]]) == 1.5
        assert shard_skew([]) == 1.0


# ------------------------------------------------- shard -> evaluate -> merge


@pytest.mark.parametrize("workers", WORKER_COUNTS)
class TestMergeEqualsSerial:
    def test_join_set_equal(self, workers, ctx_factory):
        e = edge_relation()
        serial = e.join(e.rename({"x": "y", "y": "z"}))
        with ctx_factory(workers):
            parallel = e.join(e.rename({"x": "y", "y": "z"}))
        assert tuple_set(serial) == tuple_set(parallel)
        assert serial.equivalent(parallel)

    def test_project_set_equal(self, workers, ctx_factory):
        wide = edge_relation().join(edge_relation().rename({"x": "y", "y": "z"}))
        serial = wide.project(("x", "z"))
        with ctx_factory(workers):
            parallel = wide.project(("x", "z"))
        assert tuple_set(serial) == tuple_set(parallel)
        assert serial.equivalent(parallel)

    def test_simplify_identical(self, workers, ctx_factory):
        # absorption merges contiguous index ranges in order, so the
        # parallel survivor list is the serial one exactly, not merely
        # set-equal
        noisy = edge_relation().union(edge_relation())
        serial = noisy.simplify()
        with ctx_factory(workers):
            parallel = noisy.simplify()
        assert [str(t.atoms) for t in serial.tuples] == [
            str(t.atoms) for t in parallel.tuples
        ]

    def test_repartition_of_merge_is_fixpoint(self, workers, ctx_factory):
        with ctx_factory(workers):
            once = edge_relation().union(edge_relation()).simplify()
            twice = once.simplify()
        assert [str(t.atoms) for t in once.tuples] == [
            str(t.atoms) for t in twice.tuples
        ]
        assert shard_indices(once.tuples, workers) == shard_indices(
            twice.tuples, workers
        )


# --------------------------------------------------------- order invariance


class TestTupleOrderInvariance:
    @SETTINGS
    @given(perm=st.permutations(EDGES))
    def test_simplify_pointset_order_invariant(self, perm):
        reference = edge_relation().simplify()
        with ExecutionContext(workers=3, pool="thread", min_tuples=2) as ctx:
            try:
                shuffled = Relation.from_points(("x", "y"), perm).simplify()
            finally:
                ctx.close()
        assert tuple_set(reference) == tuple_set(shuffled)

    @SETTINGS
    @given(perm=st.permutations(EDGES))
    def test_project_pointset_order_invariant(self, perm):
        reference = edge_relation().project(("y",))
        with ExecutionContext(workers=3, pool="thread", min_tuples=2) as ctx:
            try:
                shuffled = Relation.from_points(("x", "y"), perm).project(("y",))
            finally:
                ctx.close()
        assert reference.equivalent(shuffled)
