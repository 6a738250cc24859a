"""The kernel memo cache: LRU mechanics, configuration, eviction under
pressure, and correctness with a tiny capacity."""

import pytest

from repro.core.atoms import le, lt
from repro.core.database import Database
from repro.core.relation import Relation
from repro.core.theory import DENSE_ORDER
from repro.datalog.engine import evaluate_program
from repro.perf import (
    KernelCache,
    configure_kernel_cache,
    kernel_cache,
    kernel_cache_disabled,
    kernel_counters,
    kernel_stats,
    reset_kernel_cache,
)
from repro.perf.cache import DEFAULT_CAPACITY, KernelEntry
from repro.perf.columnar import BoundsMatrix
from repro.queries.library import transitive_closure_program


@pytest.fixture(autouse=True)
def _restore_cache():
    """Every test leaves the process-wide cache in its default state."""
    yield
    configure_kernel_cache(capacity=DEFAULT_CAPACITY, enabled=True)
    reset_kernel_cache()


def _entry(*atoms):
    return KernelEntry(BoundsMatrix(frozenset(atoms)))


class TestKernelCacheMechanics:
    def test_miss_then_hit(self):
        cache = KernelCache(capacity=4)
        key = frozenset([lt("x", "y")])
        assert cache.lookup(key) is None
        entry = _entry(lt("x", "y"))
        cache.store(key, entry)
        assert cache.lookup(key) is entry
        assert (cache.hits, cache.misses) == (1, 1)

    def test_lru_eviction_order(self):
        cache = KernelCache(capacity=2)
        k1, k2, k3 = (frozenset([le("x", i)]) for i in (1, 2, 3))
        cache.store(k1, _entry(le("x", 1)))
        cache.store(k2, _entry(le("x", 2)))
        cache.lookup(k1)  # refresh k1; k2 is now the eviction victim
        cache.store(k3, _entry(le("x", 3)))
        assert cache.lookup(k2) is None
        assert cache.lookup(k1) is not None
        assert cache.evictions == 1

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            KernelCache(capacity=0)
        with pytest.raises(ValueError):
            configure_kernel_cache(capacity=-3)

    def test_configure_shrink_evicts_oldest(self):
        reset_kernel_cache()
        cache = kernel_cache()
        for i in range(6):
            key = frozenset([le("x", i)])
            cache.store(key, _entry(le("x", i)))
        configure_kernel_cache(capacity=2)
        assert len(cache) == 2
        assert cache.evictions >= 4

    def test_memo_map_serves_hits_and_stays_bounded(self):
        cache = KernelCache(capacity=2)
        calls = []

        def double(n):
            calls.append(n)
            return 2 * n

        assert cache.memo_map(("double",), [1, 2, 1], double) == [2, 4, 2]
        assert calls == [1, 2]
        assert (cache.memo_hits, cache.memo_misses, cache.memo_entries) == (1, 2, 2)
        # a third entry finds the memo full: it starts over
        assert cache.memo_map(("double",), [3, 1], double) == [6, 2]
        assert calls == [1, 2, 3, 1]
        assert cache.memo_entries == 2
        assert sum(len(table) for table in cache.memo.values()) == 2
        cache.clear()
        assert (cache.memo, cache.memo_entries) == ({}, 0)
        assert (cache.memo_hits, cache.memo_misses) == (1, 4)

    def test_entry_memoizes_canonical_including_unsat(self):
        sat = _entry(lt("x", "y"))
        assert sat.canonical() == frozenset([lt("x", "y")])
        assert sat.canonical() is sat.canonical()
        unsat = _entry(lt("x", "y"), lt("y", "x"))
        assert unsat.canonical() is None


class TestDisableAndStats:
    def test_disabled_context_restores_both_layers(self):
        from repro.perf import intern_pool

        cache, pool = kernel_cache(), intern_pool()
        assert cache.enabled and pool.enabled
        with kernel_cache_disabled():
            assert not cache.enabled and not pool.enabled
        assert cache.enabled and pool.enabled

    def test_disabled_path_touches_no_counters(self):
        reset_kernel_cache()
        with kernel_cache_disabled():
            assert DENSE_ORDER.is_satisfiable([lt("x", "y")])
            assert DENSE_ORDER.canonicalize_if_satisfiable([lt("x", "y")])
        counters = kernel_counters()
        assert counters["cache.hits"] == 0
        assert counters["cache.misses"] == 0

    def test_stats_shape(self):
        stats = kernel_stats()
        for key in (
            "cache.hits",
            "cache.misses",
            "cache.evictions",
            "cache.entries",
            "cache.capacity",
            "cache.enabled",
            "memo.hits",
            "memo.misses",
            "memo.entries",
            "intern.reused",
            "intern.interned",
            "intern.live",
            "intern.enabled",
        ):
            assert key in stats

    def test_repeated_kernel_calls_hit(self):
        reset_kernel_cache()
        conj = [lt("x", "y"), le("y", 5)]
        DENSE_ORDER.canonicalize_if_satisfiable(conj)
        before = kernel_counters()["cache.hits"]
        DENSE_ORDER.is_satisfiable(conj)
        DENSE_ORDER.solve(conj)
        DENSE_ORDER.make_entailer(conj)
        assert kernel_counters()["cache.hits"] >= before + 3


class TestTinyCapacityCorrectness:
    def test_eviction_pressure_keeps_results_exact(self):
        """A 4-entry cache (and operation memo) thrashes on a TC
        fixpoint yet must stay exact."""
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
        db = Database({"E": Relation.from_points(("x", "y"), edges)})
        program = transitive_closure_program()

        with kernel_cache_disabled():
            baseline = evaluate_program(program, db)["tc"]

        reset_kernel_cache()
        configure_kernel_cache(capacity=4)
        result = evaluate_program(program, db)["tc"]
        cache = kernel_cache()
        assert cache.evictions > 0
        assert len(cache) <= 4
        assert kernel_stats()["memo.entries"] <= 4
        assert cache.memo_misses > 4  # the memo started over, more than once
        assert result.equivalent(baseline)
        assert frozenset(result.tuples) == frozenset(baseline.tuples)
