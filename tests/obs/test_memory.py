"""Per-span memory attribution: backends, nesting, and the plumbing
from ``--memory`` through the tracer and the worker pool.

The byte-identical-results contract (E21's gate rides on it) is pinned
here at unit scale: evaluating with a memory profiler armed changes
span *attrs*, never the evaluation result.
"""

from __future__ import annotations

import pytest

from repro.core.relation import Relation
from repro.obs import (
    MemoryProfiler,
    Tracer,
    memory_summary,
    trace_document,
    validate_trace,
)
from repro.obs.memory import BACKENDS, DEFAULT_BACKEND
from repro.parallel import ExecutionContext
from repro.parallel.context import MEMORY_BACKENDS


def _rel(n=30):
    return Relation.from_points(
        ("x", "y"), [(i, (i * 7 + 3) % n) for i in range(n)]
    )


class TestBackendNames:
    def test_context_constant_pins_memory_module(self):
        """context.py must stay stdlib-only, so it duplicates the
        backend tuple; this is the test that keeps the copies equal."""
        assert MEMORY_BACKENDS == BACKENDS

    def test_default_is_rss(self):
        assert DEFAULT_BACKEND == "rss"
        assert MemoryProfiler().backend == "rss"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            MemoryProfiler("valgrind")
        with pytest.raises(ValueError):
            ExecutionContext(workers=1, memory="valgrind")


@pytest.mark.parametrize("backend", BACKENDS)
class TestProfilerFrames:
    def test_pop_returns_memory_attrs(self, backend):
        profiler = MemoryProfiler(backend)
        profiler.start()
        try:
            frame = profiler.push()
            ballast = [bytearray(1024) for _ in range(200)]
            attrs = profiler.pop(frame)
        finally:
            profiler.stop()
        assert attrs["mem_alloc_blocks"] >= 0
        assert attrs["mem_peak_bytes"] >= 0
        if backend == "tracemalloc":
            # tracemalloc sees the ~200KiB ballast exactly
            assert attrs["mem_alloc_bytes"] >= 200 * 1024
            assert attrs["mem_peak_bytes"] >= attrs["mem_alloc_bytes"]
        del ballast

    def test_frames_nest(self, backend):
        profiler = MemoryProfiler(backend)
        profiler.start()
        try:
            outer = profiler.push()
            inner = profiler.push()
            ballast = [bytearray(1024) for _ in range(100)]
            inner_attrs = profiler.pop(inner)
            outer_attrs = profiler.pop(outer)
        finally:
            profiler.stop()
        # the child's peak is visible to the parent too (monotone rss;
        # folded traced peak) — the parent never reports less
        assert outer_attrs["mem_peak_bytes"] >= inner_attrs["mem_peak_bytes"]
        del ballast

    def test_out_of_order_pop_discards_inner_frames(self, backend):
        profiler = MemoryProfiler(backend)
        profiler.start()
        try:
            outer = profiler.push()
            profiler.push()  # never popped
            attrs = profiler.pop(outer)
            assert "mem_alloc_blocks" in attrs
            # the stack is empty again: a fresh push/pop still works
            frame = profiler.push()
            assert profiler.pop(frame)
        finally:
            profiler.stop()

    def test_pop_of_unknown_frame_is_empty(self, backend):
        profiler = MemoryProfiler(backend)
        profiler.start()
        try:
            assert profiler.pop([0, 0, 0]) == {}
        finally:
            profiler.stop()


class TestTracerIntegration:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_spans_close_with_memory_attrs(self, backend):
        tracer = Tracer()
        tracer.memory = MemoryProfiler(backend)
        with tracer:
            with tracer.span("query"):
                with tracer.span("relation.join"):
                    _rel().join(_rel().rename({"x": "y", "y": "z"}))
        for record in tracer.spans:
            assert "mem_alloc_blocks" in record.attrs
            assert "mem_peak_bytes" in record.attrs
        validate_trace(trace_document(tracer))

    def test_results_identical_with_and_without_memory(self):
        r = _rel()

        def work():
            return r.join(r.rename({"x": "y", "y": "z"})).project(("x", "z"))

        plain = work()
        tracer = Tracer()
        tracer.memory = MemoryProfiler("rss")
        with tracer:
            with tracer.span("query"):
                traced = work()
        assert traced.tuples == plain.tuples

    def test_untraced_runs_carry_no_memory_attrs(self):
        tracer = Tracer()
        with tracer:
            with tracer.span("query"):
                pass
        assert "mem_alloc_blocks" not in tracer.spans[0].attrs


class TestWorkerCapture:
    def test_memory_attrs_cross_the_pool_boundary(self):
        """--memory on a --parallel run: stitched worker.* spans carry
        memory attrs measured inside the worker."""
        tracer = Tracer()
        tracer.memory = MemoryProfiler("rss")
        ctx = ExecutionContext(workers=2, pool="thread", memory="rss")
        try:
            with tracer, ctx:
                with tracer.span("query"):
                    out = _rel(40).join(_rel(40).rename({"x": "y", "y": "z"}))
        finally:
            ctx.close()
        assert out.tuples
        workers = [s for s in tracer.spans if s.name.startswith("worker.")]
        assert workers
        for span in workers:
            assert "mem_alloc_blocks" in span.attrs
            assert "mem_peak_bytes" in span.attrs

    def test_memory_off_means_no_worker_attrs(self):
        tracer = Tracer()
        ctx = ExecutionContext(workers=2, pool="thread")
        try:
            with tracer, ctx:
                with tracer.span("query"):
                    _rel(40).join(_rel(40).rename({"x": "y", "y": "z"}))
        finally:
            ctx.close()
        workers = [s for s in tracer.spans if s.name.startswith("worker.")]
        assert workers
        assert all("mem_alloc_blocks" not in s.attrs for s in workers)

    def test_context_stats_report_backend(self):
        ctx = ExecutionContext(workers=1, memory="tracemalloc")
        try:
            assert ctx.stats()["memory"] == "tracemalloc"
        finally:
            ctx.close()


class TestMemorySummary:
    def test_aggregates_per_name(self):
        document = {
            "spans": [
                {"name": "relation.join",
                 "attrs": {"mem_alloc_blocks": 5, "mem_peak_bytes": 100}},
                {"name": "relation.join",
                 "attrs": {"mem_alloc_blocks": 3, "mem_peak_bytes": 300}},
                {"name": "qe.eliminate",
                 "attrs": {"mem_alloc_blocks": 1, "mem_peak_bytes": 50,
                           "mem_alloc_bytes": 640}},
                {"name": "bare", "attrs": {}},
            ]
        }
        rows = memory_summary(document)
        assert [r["name"] for r in rows] == ["relation.join", "qe.eliminate"]
        join = rows[0]
        assert join["calls"] == 2
        assert join["alloc_blocks"] == 8
        assert join["peak_bytes"] == 300
        assert rows[1]["alloc_bytes"] == 640

    def test_top_truncates(self):
        document = {
            "spans": [
                {"name": f"op.{i}",
                 "attrs": {"mem_alloc_blocks": 1, "mem_peak_bytes": i}}
                for i in range(20)
            ]
        }
        assert len(memory_summary(document, top=5)) == 5
