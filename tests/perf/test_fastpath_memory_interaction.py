"""The absorb/join fast paths under an active MemoryProfiler.

``tests/perf/test_fastpath_reference.py`` pins the rewritten hot paths
against the verbatim seed algorithms, but always ran them *untraced* —
nothing ever exercised the fast paths while the tracer carried a
:class:`~repro.obs.memory.MemoryProfiler`, the configuration where the
operator preambles open memory frames (``_mem_mark``) around the very
loops the fast paths replace.  This suite closes that gap across the
interaction matrix: memory attribution × kernel cache on/off.

The contracts:

* the fast paths still produce byte-identical output to the reference
  algorithms while a memory frame is open;
* the join/absorb ledger records carry populated memory fields with
  the cache on or off (and zeros without ``--memory``);
* turning both features on at once (cache + memory attribution)
  changes no result and loses no ledger column.
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


class TestFastPathsUnderMemoryProfiler:
    @settings(max_examples=25, deadline=None)
    @given(tuples=st.lists(gtuples(), max_size=6))
    def test_absorb_matches_reference(self, tuples):
        expected = reference_absorb(tuples)
        reset_kernel_cache()
        got, tracer = _run_traced(lambda: _absorb(list(tuples)))
        assert got == expected
        records = [r for r in tracer.ledger.records if r.op == "absorb"]
        assert records, "absorb never reached the ledger"
        assert all(r.alloc_blocks >= 0 and r.peak_bytes >= 0 for r in records)

    @settings(max_examples=20, deadline=None)
    @given(left=point_relations(("x", "y")), right=point_relations(("y", "z")))
    def test_join_matches_reference(self, left, right):
        expected = reference_join(left, right).tuples
        reset_kernel_cache()
        got, tracer = _run_traced(lambda: left.join(right))
        assert got.tuples == expected
        records = [r for r in tracer.ledger.records if r.op == "join"]
        assert records, "join never reached the ledger"
        assert all(r.alloc_blocks >= 0 and r.peak_bytes >= 0 for r in records)

    @settings(max_examples=15, deadline=None)
    @given(tuples=st.lists(gtuples(), max_size=5))
    def test_absorb_with_cache_disabled(self, tuples):
        expected = reference_absorb(tuples)
        with kernel_cache_disabled():
            got, tracer = _run_traced(lambda: _absorb(list(tuples)))
        assert got == expected
        records = [r for r in tracer.ledger.records if r.op == "absorb"]
        assert records
        # with the cache off the operator must charge zero cache traffic
        assert all(r.cache_hits == 0 and r.cache_misses == 0 for r in records)

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
        _, tracer = _run_traced(lambda: left.join(right), memory=False)
        records = [r for r in tracer.ledger.records if r.op == "join"]
        assert records
        assert all(
            r.alloc_blocks == 0 and r.alloc_bytes == 0 and r.peak_bytes == 0
            for r in records
        )

    def test_columnar_join_records_cache_and_memory_together(self):
        # both features at once: memo cache + memory attribution.  The
        # join's merges must keep paying their cache traffic into the
        # ledger while the memory frame is open.
        left = Relation.from_points(("x", "y"), [(i, i + 1) for i in range(8)])
        right = Relation.from_points(("y", "z"), [(i, i + 2) for i in range(8)])
        reset_kernel_cache()
        result, tracer = _run_traced(lambda: left.join(right))
        records = [r for r in tracer.ledger.records if r.op == "join"]
        assert records
        record = records[0]
        assert record.cache_hits + record.cache_misses > 0
        assert record.alloc_blocks >= 0 and record.peak_bytes >= 0
        assert record.out_tuples == len(result.tuples)
