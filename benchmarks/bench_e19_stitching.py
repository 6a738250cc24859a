"""E19 -- cross-process trace stitching: capture overhead and off-switch.

Worker-side telemetry capture (:mod:`repro.obs.stitch`) must be cheap
when a tracer asks for it and free when it does not:

* **stitching overhead** — the E17 two-hop workload under a tracer
  with capture on (in-worker tracers, envelope pickling, parent-side
  grafting) versus the same traced run with ``capture=False``.
  Target (EXPERIMENTS.md E19): < 3%.  The hard gate is sized for CI
  timing noise, as in E13-E17; the honest numbers come from
  ``python benchmarks/collect_results.py`` (BENCH_STITCHING.json).
* **off-switch overhead** — a batch of shard-sized pure compute
  dispatched through ``ExecutionContext.run_shards`` with no tracer
  active (the default untraced path) versus the same batch under an
  active tracer with ``capture=False``.  Both dispatch bare kernels;
  the difference is the capture decision itself.  Target: < 1%.

Behavioral gates ride along: a captured run must stitch a worker span
for *every* dispatched shard and the merged document must validate.
"""

import os
import time

import pytest

from repro.obs import Tracer, trace_document, validate_trace
from repro.parallel import ExecutionContext

import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_e17_parallel import join_heavy_relation, two_hop  # noqa: E402

CORES = os.cpu_count() or 1
WORKERS = 2
SHARDS = 16


def shard_work(payload):
    """A shard-sized unit of pure compute (~a small join shard)."""
    start, n = payload
    acc = 0
    for i in range(start, start + n):
        acc = (acc * 31 + i * i) % 1_000_003
    return acc


PAYLOADS = [(i * 1000, 20_000) for i in range(SHARDS)]
EXPECTED = [shard_work(p) for p in PAYLOADS]


def _best(thunk, repeat=3):
    out = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        thunk()
        out = min(out, time.perf_counter() - t0)
    return out


def _ctx(capture=True):
    return ExecutionContext(workers=WORKERS, pool="thread", capture=capture)


def _traced_two_hop(ctx, r):
    tracer = Tracer()
    with tracer, ctx:
        with tracer.span("bench"):
            two_hop(r)
    return tracer


# ----------------------------------------------------------- benchmark pairs


@pytest.mark.parametrize("mode", ["unstitched", "stitched"])
def test_traced_two_hop(benchmark, mode):
    r = join_heavy_relation()
    ctx = _ctx(capture=(mode == "stitched"))
    try:
        with ctx:
            _traced_two_hop(ctx, r)  # warm the pool
        benchmark(lambda: _traced_two_hop(ctx, r))
    finally:
        ctx.close()


# ------------------------------------------------------------------- report


def test_report_stitching(capsys):
    """Print capture overhead and off-switch overhead, gate both.

    The < 3% / < 1% numbers are the *targets*; the hard gates leave
    headroom for shared-runner scheduling noise, as in E13-E17.
    """
    r = join_heavy_relation()

    # capture overhead: traced run, capture on vs off, same pool kind
    off_ctx = _ctx(capture=False)
    try:
        _traced_two_hop(off_ctx, r)  # warm pool + kernel caches
        unstitched = _best(lambda: _traced_two_hop(off_ctx, r))
    finally:
        off_ctx.close()
    on_ctx = _ctx(capture=True)
    try:
        tracer = _traced_two_hop(on_ctx, r)  # warm + behavioral sample
        stitched = _best(lambda: _traced_two_hop(on_ctx, r))
    finally:
        on_ctx.close()
    overhead = stitched / unstitched - 1.0

    # behavioral: every dispatched shard stitched a worker span, and
    # the merged document is a single valid repro.trace/1
    workers = [s for s in tracer.spans if s.name.startswith("worker.")]
    shards = {(s.name, s.attrs.get("shard")) for s in workers}
    assert len(workers) >= 2 * 2  # join + project, 2 shards each
    validate_trace(trace_document(tracer))
    assert (
        tracer.metrics.counter("parallel.stitched_shards") == len(workers)
    )

    # off-switch: bare-kernel dispatch, no tracer vs tracer+capture=False
    plain_ctx = _ctx()
    try:
        assert plain_ctx.run_shards(shard_work, PAYLOADS) == EXPECTED  # warm
        untraced = _best(lambda: plain_ctx.run_shards(shard_work, PAYLOADS),
                         repeat=5)
        disabled_tracer = Tracer()
        with disabled_tracer:
            switch_ctx = _ctx(capture=False)
            try:
                switch_ctx.run_shards(shard_work, PAYLOADS)  # warm
                disabled = _best(
                    lambda: switch_ctx.run_shards(shard_work, PAYLOADS),
                    repeat=5,
                )
            finally:
                switch_ctx.close()
        assert not [
            s for s in disabled_tracer.spans if s.name.startswith("worker.")
        ]
    finally:
        plain_ctx.close()
    off_overhead = disabled / untraced - 1.0

    lines = [
        "",
        f"E19: trace stitching ({CORES} cores, {WORKERS} workers)",
        f"  traced, capture off    {unstitched:8.4f} s",
        f"  traced, capture on     {stitched:8.4f} s  "
        f"({overhead:+.2%} overhead, target < 3%)",
        f"  untraced dispatch      {untraced:8.4f} s",
        f"  off-switch dispatch    {disabled:8.4f} s  "
        f"({off_overhead:+.2%} overhead, target < 1%)",
        f"  stitched worker spans  {len(workers)} over {len(shards)} shard(s)",
    ]
    with capsys.disabled():
        print("\n".join(lines))

    assert overhead < 0.25, (
        f"capture + stitching is no longer near-free: {overhead:.1%}"
    )
    assert off_overhead < 0.10, (
        f"the capture off-switch itself costs: {off_overhead:.1%}"
    )


def test_stitching_is_deterministic_per_shard():
    """Every repeat of a captured run stitches the same shard set (the
    shard → span mapping is structural, not timing-dependent)."""
    r = join_heavy_relation()
    seen = []
    for _ in range(2):
        ctx = _ctx(capture=True)
        try:
            tracer = _traced_two_hop(ctx, r)
        finally:
            ctx.close()
        seen.append(sorted(
            (s.name, s.attrs.get("shard"))
            for s in tracer.spans
            if s.name.startswith("worker.")
        ))
    assert seen[0] == seen[1]
    assert seen[0]
