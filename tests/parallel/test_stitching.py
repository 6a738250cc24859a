"""Cross-process trace stitching: worker telemetry in the parent trace.

The contract: a ``--parallel`` run under a tracer produces one valid
``repro.trace/1`` document containing worker-side spans (with
``pid``/``shard`` attributes) for every dispatched shard, plus merged
worker metrics and worker events.  These tests pin the stitching
mechanics (:mod:`repro.obs.stitch`), the capture plumbing through
``ExecutionContext.run_shards``, and that the kernel counters of a
``--parallel`` run include the workers' kernel activity, not only the
parent's.
"""

from __future__ import annotations

import os

from repro.core.relation import Relation
from repro.obs import (
    Tracer,
    snapshot_telemetry,
    stitch_telemetry,
    trace_document,
    validate_trace,
)
from repro.parallel import ExecutionContext


def _rel(n=40):
    return Relation.from_points(
        ("x", "y"), [(i, (i * 7 + 3) % n) for i in range(n)]
    )


def _two_hop(r):
    return r.join(r.rename({"x": "y", "y": "z"})).project(("x", "z"))


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
        assert ctx.batches >= 2  # join + project sharded, bare kernels


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


# ----------------------------------------------------- stitch unit mechanics


class TestStitchMechanics:
    def _snapshot(self, **overrides):
        worker = Tracer()
        with worker:
            with worker.span("worker.unit", pid=os.getpid()):
                worker.event("unit.note", detail=7)
        snapshot = snapshot_telemetry(worker)
        snapshot.update(overrides)
        return snapshot

    def test_none_tracer_is_a_noop(self):
        assert stitch_telemetry(None, self._snapshot(), shard=0) is None

    def test_malformed_snapshot_counts_error_never_raises(self):
        tracer = Tracer()
        with tracer:
            with tracer.span("query"):
                stitch_telemetry(tracer, {"spans": 13}, shard=0)
        assert tracer.metrics.counter("parallel.stitch_errors") == 1

    def test_same_process_kernel_counters_not_double_counted(self):
        snapshot = self._snapshot(
            counters={"kernel.cache.hits": 9, "custom.work": 2}
        )
        tracer = Tracer()
        with tracer:
            with tracer.span("query"):
                stitch_telemetry(tracer, snapshot, shard=0)
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
                stitch_telemetry(tracer, snapshot, shard=2)
        # another process's counters are its own traffic: both merge
        assert tracer.metrics.counter("kernel.cache.hits") >= 9
        assert tracer.metrics.counter("kernel.cache.misses") >= 4

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
                stitch_telemetry(tracer, snapshot, shard=0)
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
                stitch_telemetry(tracer, snapshot, shard=0)
        assert len(tracer.spans) <= 4
        assert tracer.dropped_spans >= 6
        validate_trace(trace_document(tracer))
