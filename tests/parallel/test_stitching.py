"""Cross-process trace stitching: worker telemetry in the parent trace.

The tentpole contract: a ``--parallel`` run under a tracer produces one
valid ``repro.trace/1`` document containing worker-side spans (with
``pid``/``shard``/``attempt`` attributes) for every dispatched shard —
including retried and quarantined ones — plus merged worker metrics and
replayed worker log records.  These tests pin the stitching mechanics
(:mod:`repro.obs.stitch`), the capture plumbing through the resilient
dispatch loop, and the satellite bugfix that ``--stats`` after
``--parallel`` no longer reports parent-only kernel activity.
"""

from __future__ import annotations

import contextlib
import os

import pytest

from repro.core.relation import Relation
from repro.obs import (
    CollectingSink,
    Tracer,
    snapshot_telemetry,
    stitch_telemetry,
    trace_document,
    validate_trace,
)
from repro.obs.log import log_event
from repro.parallel import ExecutionContext, ResiliencePolicy
from repro.runtime.faults import FaultRegistry, TransientEvaluationError


def _rel(n=40):
    return Relation.from_points(
        ("x", "y"), [(i, (i * 7 + 3) % n) for i in range(n)]
    )


def _two_hop(r):
    return r.join(r.rename({"x": "y", "y": "z"})).project(("x", "z"))


def _double(payload):
    return payload * 2


def _exhaust(registry: FaultRegistry, site: str, hits: int) -> None:
    """Burn the parent-side fault budget (see test_resilience.py)."""
    with registry:
        for _ in range(hits):
            with contextlib.suppress(Exception):
                registry.fire(site)


def _worker_spans(tracer):
    return [s for s in tracer.spans if s.name.startswith("worker.")]


# -------------------------------------------------------- end-to-end capture


class TestCapturedDispatch:
    def test_thread_pool_worker_spans_stitched_per_shard(self):
        tracer = Tracer()
        ctx = ExecutionContext(workers=2, pool="thread")
        try:
            with tracer, ctx:
                with tracer.span("query"):
                    out = _two_hop(_rel())
        finally:
            ctx.close()
        assert len(out.tuples) == 40
        workers = _worker_spans(tracer)
        # join + project each dispatch 2 shards
        assert len(workers) >= 4
        shards = {s.attrs["shard"] for s in workers}
        assert shards == {0, 1}
        assert all(s.attrs["attempt"] == 1 for s in workers)
        assert all(s.attrs["pid"] == os.getpid() for s in workers)
        # every worker span hangs under a parallel.<op>.dispatch span
        by_id = {s.span_id: s for s in tracer.spans}
        for s in workers:
            assert by_id[s.parent_id].name.endswith(".dispatch")
        validate_trace(trace_document(tracer))
        assert tracer.metrics.counter("parallel.stitched_shards") >= 4
        assert tracer.metrics.counter("parallel.stitched_spans") >= 4

    def test_process_pool_spans_carry_worker_pids(self):
        tracer = Tracer()
        ctx = ExecutionContext(workers=2, pool="process")
        try:
            with tracer, ctx:
                with tracer.span("query"):
                    _two_hop(_rel())
        finally:
            ctx.close()
        workers = _worker_spans(tracer)
        assert workers
        pids = {s.attrs["pid"] for s in workers}
        assert os.getpid() not in pids
        validate_trace(trace_document(tracer))
        # the kernels sharded on the process pool
        assert tracer.metrics.counter("parallel.join.calls") > 0
        assert tracer.metrics.counter("parallel.project.calls") > 0

    def test_capture_off_switch_suppresses_worker_telemetry(self):
        tracer = Tracer()
        ctx = ExecutionContext(workers=2, pool="thread", capture=False)
        try:
            with tracer, ctx:
                with tracer.span("query"):
                    _two_hop(_rel())
        finally:
            ctx.close()
        assert not _worker_spans(tracer)
        assert tracer.metrics.counter("parallel.stitched_shards") == 0
        # the dispatches are still counted, just with no worker view
        assert tracer.metrics.counter("parallel.join.calls") > 0

    def test_untraced_run_never_captures(self):
        ctx = ExecutionContext(workers=2, pool="thread")
        try:
            with ctx:
                out = _two_hop(_rel())
        finally:
            ctx.close()
        assert len(out.tuples) == 40
        assert ctx.last_report is not None


# ------------------------------------------------ kernel-counter parity (bug)


class TestKernelCounterParity:
    def test_parallel_stats_see_worker_kernel_activity(self):
        """The satellite bugfix: before stitching, a process-pool run's
        tracer showed only the parent's (near-zero) ``kernel.*`` deltas;
        the work — and its cache traffic — happened in the workers."""
        serial = Tracer()
        with serial:
            with serial.span("query"):
                _two_hop(_rel())
        parallel = Tracer()
        ctx = ExecutionContext(workers=2, pool="process")
        try:
            with parallel, ctx:
                with parallel.span("query"):
                    _two_hop(_rel())
        finally:
            ctx.close()

        def lookups(tracer):
            m = tracer.metrics
            return (
                m.counter("kernel.cache.hits")
                + m.counter("kernel.cache.misses")
            )

        assert lookups(serial) > 0
        assert lookups(parallel) > 0
        # hits vs misses shift with process-wide cache warmth, but the
        # lookup *totals* must be comparable: same pairs tested, just
        # partitioned across processes
        ratio = lookups(parallel) / lookups(serial)
        assert 0.5 <= ratio <= 2.5, ratio


# ------------------------------------------------- retries and quarantine


class TestResilientStitching:
    SITE = "worker._double"

    def test_retried_shard_stitches_with_attempt_two(self):
        registry = FaultRegistry(seed=5)
        registry.inject(
            self.SITE, error=TransientEvaluationError("flaky"), times=1
        )
        tracer = Tracer()
        ctx = ExecutionContext(
            workers=1, pool="thread",
            resilience=ResiliencePolicy(max_retries=2, backoff_base=0.001),
        )
        try:
            with registry, tracer:
                with tracer.span("query"):
                    out = ctx.run_shards(_double, [4])
        finally:
            ctx.close()
        assert out == [8]
        assert ctx.retries == 1
        workers = _worker_spans(tracer)
        assert len(workers) == 1  # the failed attempt ships no telemetry
        assert workers[0].attrs["attempt"] == 2
        assert "quarantined" not in workers[0].attrs
        validate_trace(trace_document(tracer))

    def test_quarantined_rerun_stitches_with_flag(self):
        registry = FaultRegistry(seed=5)
        registry.inject(
            self.SITE, error=TransientEvaluationError("poisoned"), times=3
        )
        _exhaust(registry, self.SITE, 3)  # quarantine's ambient budget
        tracer = Tracer()
        ctx = ExecutionContext(
            workers=1, pool="thread",
            resilience=ResiliencePolicy(max_retries=2, backoff_base=0.001),
        )
        try:
            with registry, tracer:
                with tracer.span("query"):
                    out = ctx.run_shards(_double, [4])
        finally:
            ctx.close()
        assert out == [8]
        assert ctx.quarantined == 1
        workers = _worker_spans(tracer)
        assert len(workers) == 1
        assert workers[0].attrs["quarantined"] is True
        # initial dispatch + 2 retries failed; quarantine is attempt 4
        assert workers[0].attrs["attempt"] == 4
        validate_trace(trace_document(tracer))

    def test_chaos_run_produces_valid_stitched_trace(self):
        """The CI chaos job's assertion: retried/quarantined shards under
        probabilistic faults still stitch into a valid document."""
        registry = FaultRegistry(seed=11)
        registry.inject(
            "worker.join_shard",
            error=TransientEvaluationError("chaos"),
            probability=0.2,
            times=50,
        )
        _exhaust(registry, "worker.join_shard", 50)
        tracer = Tracer()
        ctx = ExecutionContext(
            workers=2, pool="thread",
            resilience=ResiliencePolicy(max_retries=3, backoff_base=0.001),
        )
        try:
            with registry, tracer, ctx:
                with tracer.span("query"):
                    out = _two_hop(_rel())
        finally:
            ctx.close()
        assert len(out.tuples) == 40
        workers = _worker_spans(tracer)
        join_spans = [s for s in workers if s.name == "worker.join_shard"]
        assert {s.attrs["shard"] for s in join_spans} == {0, 1}
        validate_trace(trace_document(tracer))


# ----------------------------------------------------- stitch unit mechanics


class TestStitchMechanics:
    def _snapshot(self, **overrides):
        worker = Tracer()
        sink = worker.add_sink(CollectingSink())
        with worker:
            with worker.span("worker.unit", pid=os.getpid()):
                log_event("unit.note", level="info", detail=7)
        snapshot = snapshot_telemetry(worker, sink.records)
        snapshot.update(overrides)
        return snapshot

    def test_none_tracer_is_a_noop(self):
        assert stitch_telemetry(None, self._snapshot(), shard=0, attempt=1) is None

    def test_malformed_snapshot_counts_error_never_raises(self):
        tracer = Tracer()
        with tracer:
            with tracer.span("query"):
                stitch_telemetry(tracer, {"spans": 13}, shard=0, attempt=1)
        assert tracer.metrics.counter("parallel.stitch_errors") == 1

    def test_same_process_kernel_counters_not_double_counted(self):
        snapshot = self._snapshot(
            counters={"kernel.cache.hits": 9, "custom.work": 2}
        )
        tracer = Tracer()
        with tracer:
            with tracer.span("query"):
                stitch_telemetry(tracer, snapshot, shard=0, attempt=1)
        assert tracer.metrics.counter("custom.work") == 2
        # the parent's own window saw no entailment work, so if the 9
        # had been merged (double-counted) it would show up here
        assert tracer.metrics.counter("kernel.cache.hits") < 9

    def test_cross_process_kernel_delta_returned_and_merged(self):
        snapshot = self._snapshot(
            pid=os.getpid() + 1,
            counters={"kernel.cache.hits": 9, "kernel.cache.misses": 4},
        )
        tracer = Tracer()
        with tracer:
            with tracer.span("query"):
                stitch_telemetry(tracer, snapshot, shard=2, attempt=1)
        # another process's counters are its own traffic: both merge
        assert tracer.metrics.counter("kernel.cache.hits") >= 9
        assert tracer.metrics.counter("kernel.cache.misses") >= 4

    def test_log_records_replay_through_parent_sinks(self):
        snapshot = self._snapshot(pid=os.getpid() + 1)
        tracer = Tracer()
        sink = tracer.add_sink(CollectingSink())
        with tracer:
            with tracer.span("query"):
                stitch_telemetry(tracer, snapshot, shard=3, attempt=1)
        replayed = [r for r in sink.records if r["name"] == "unit.note"]
        assert len(replayed) == 1
        record = replayed[0]
        assert record["trace"] == tracer.trace_id
        assert record["attrs"]["worker_pid"] == os.getpid() + 1
        assert record["attrs"]["shard"] == 3
        assert record["attrs"]["detail"] == 7

    def test_clock_shift_clamps_into_dispatch_span(self):
        # worker clocks are arbitrary offsets; the graft must land the
        # spans inside the open parent span whatever the worker epoch
        snapshot = self._snapshot()
        snapshot["spans"] = [
            (1, None, "worker.unit", 1e6, 1e6 + 0.5, {}),
            (2, 1, "worker.inner", 1e6 + 0.1, 1e6 + 0.2, {}),
        ]
        tracer = Tracer()
        with tracer:
            with tracer.span("query"):
                stitch_telemetry(tracer, snapshot, shard=0, attempt=1)
        validate_trace(trace_document(tracer))
        workers = _worker_spans(tracer)
        parent = next(s for s in tracer.spans if s.name == "query")
        assert all(s.start >= parent.start for s in workers)
        # the child kept its remapped parent, not the graft parent
        inner = next(s for s in workers if s.name == "worker.inner")
        outer = next(s for s in workers if s.name == "worker.unit")
        assert inner.parent_id == outer.span_id

    def test_span_cap_respected_while_stitching(self):
        snapshot = self._snapshot()
        snapshot["spans"] = [
            (i, None, f"worker.s{i}", 0.0, 0.1, {}) for i in range(10)
        ]
        tracer = Tracer(max_spans=4)
        with tracer:
            with tracer.span("query"):
                stitch_telemetry(tracer, snapshot, shard=0, attempt=1)
        assert len(tracer.spans) <= 4
        assert tracer.dropped_spans >= 6
        validate_trace(trace_document(tracer))
