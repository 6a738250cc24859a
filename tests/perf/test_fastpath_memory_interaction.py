"""The absorb/join fast paths under an active MemoryProfiler.

``tests/perf/test_fastpath_reference.py`` pins the rewritten hot paths
against the verbatim seed algorithms, but always ran them *untraced* —
nothing ever exercised the fast paths while the tracer carried a
:class:`~repro.obs.memory.MemoryProfiler`, the configuration where the
enclosing span holds an open memory frame around the very loops the
fast paths replace.  This suite closes that gap across the interaction
matrix: memory attribution × kernel cache on/off.

The contracts:

* the fast paths still produce byte-identical output to the reference
  algorithms while a memory frame is open;
* the join/absorb operators keep recording their per-operator metrics
  (calls and output sizes) with the cache on or off, and the enclosing
  span closes with memory attrs (none without ``--memory``);
* turning both features on at once (cache + memory attribution)
  changes no result and loses no metric.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.relation import Relation, _absorb
from repro.obs import Tracer
from repro.obs.memory import MemoryProfiler
from repro.perf import kernel_cache_disabled, reset_kernel_cache
from tests.perf.test_fastpath_reference import (
    gtuples,
    point_relations,
    reference_absorb,
    reference_join,
)


def _armed_tracer() -> Tracer:
    tracer = Tracer()
    tracer.memory = MemoryProfiler("rss")
    return tracer


def _run_traced(work, *, memory=True):
    """Run ``work()`` inside a traced span; return (result, tracer)."""
    tracer = _armed_tracer() if memory else Tracer()
    with tracer:
        with tracer.span("query"):
            result = work()
    return result, tracer


def _query_attrs(tracer) -> dict:
    (query,) = [s for s in tracer.spans if s.name == "query"]
    return query.attrs


def _out_tuples(tracer, op: str) -> int:
    return int(tracer.metrics.histogram(f"relation.{op}.out_tuples").total)


class TestFastPathsUnderMemoryProfiler:
    @settings(max_examples=25, deadline=None)
    @given(tuples=st.lists(gtuples(), max_size=6))
    def test_absorb_matches_reference(self, tuples):
        expected = reference_absorb(tuples)
        reset_kernel_cache()
        got, tracer = _run_traced(lambda: _absorb(list(tuples)))
        assert got == expected
        assert tracer.metrics.counter("relation.absorb.calls") == 1
        assert _out_tuples(tracer, "absorb") == len(got)
        attrs = _query_attrs(tracer)
        assert attrs["mem_alloc_blocks"] >= 0 and attrs["mem_peak_bytes"] >= 0

    @settings(max_examples=20, deadline=None)
    @given(left=point_relations(("x", "y")), right=point_relations(("y", "z")))
    def test_join_matches_reference(self, left, right):
        expected = reference_join(left, right).tuples
        reset_kernel_cache()
        got, tracer = _run_traced(lambda: left.join(right))
        assert got.tuples == expected
        assert tracer.metrics.counter("relation.join.calls") == 1
        assert _out_tuples(tracer, "join") == len(got.tuples)
        attrs = _query_attrs(tracer)
        assert attrs["mem_alloc_blocks"] >= 0 and attrs["mem_peak_bytes"] >= 0

    @settings(max_examples=15, deadline=None)
    @given(tuples=st.lists(gtuples(), max_size=5))
    def test_absorb_with_cache_disabled(self, tuples):
        expected = reference_absorb(tuples)
        with kernel_cache_disabled():
            got, tracer = _run_traced(lambda: _absorb(list(tuples)))
        assert got == expected
        assert tracer.metrics.counter("relation.absorb.calls") == 1
        # with the cache off the run must charge zero cache traffic
        assert tracer.metrics.counter("kernel.cache.hits") == 0
        assert tracer.metrics.counter("kernel.cache.misses") == 0

    @settings(max_examples=15, deadline=None)
    @given(left=point_relations(("x", "y")), right=point_relations(("y", "z")))
    def test_join_with_cache_disabled(self, left, right):
        expected = reference_join(left, right).tuples
        with kernel_cache_disabled():
            got, tracer = _run_traced(lambda: left.join(right))
        assert got.tuples == expected


class TestLedgerMemoryColumns:
    def test_memory_fields_zero_without_profiler(self):
        left = Relation.from_points(("x", "y"), [(i, i + 1) for i in range(6)])
        right = Relation.from_points(("y", "z"), [(i, i + 2) for i in range(6)])
        reset_kernel_cache()
        result, tracer = _run_traced(lambda: left.join(right), memory=False)
        assert tracer.metrics.counter("relation.join.calls") == 1
        assert _out_tuples(tracer, "join") == len(result.tuples)
        assert not any(
            name.startswith("mem_") for s in tracer.spans for name in s.attrs
        )

    def test_columnar_join_records_cache_and_memory_together(self):
        # both features at once: memo cache + memory attribution.  The
        # join's merges must keep paying their cache traffic into the
        # run's kernel counters while the memory frame is open.
        left = Relation.from_points(("x", "y"), [(i, i + 1) for i in range(8)])
        right = Relation.from_points(("y", "z"), [(i, i + 2) for i in range(8)])
        reset_kernel_cache()
        result, tracer = _run_traced(lambda: left.join(right))
        metrics = tracer.metrics
        assert (
            metrics.counter("kernel.cache.hits")
            + metrics.counter("kernel.cache.misses")
        ) > 0
        attrs = _query_attrs(tracer)
        assert attrs["mem_alloc_blocks"] >= 0 and attrs["mem_peak_bytes"] >= 0
        assert _out_tuples(tracer, "join") == len(result.tuples)
