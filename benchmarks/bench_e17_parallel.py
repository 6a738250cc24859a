"""E17 -- sharded parallel evaluation: speedup and off-switch overhead.

The parallel backend (:mod:`repro.parallel`) must pay for itself in
both directions: with an :class:`ExecutionContext` active, fanning
join pairing / quantifier elimination / absorption out over a process
pool should beat the serial pass on join-heavy and fixpoint workloads;
with no context active, the hooks it added to ``Relation.join`` /
``project`` / ``_absorb`` are a single context-variable read and must
be free in the noise.

Targets (EXPERIMENTS.md E17): >= 1.5x speedup with 4 process workers
on >= 4 cores; < 3% overhead with the backend off.  Speedup is a
property of the *machine* -- with fewer cores the gate relaxes (the
differential suite, not this file, carries correctness), and on a
single core only the overhead gate is enforced.  Hard gates here are
sized for timing noise, as in E13-E15; the honest numbers come from
``python benchmarks/collect_results.py`` (BENCH_PARALLEL.json).
"""

import os
import time

import pytest

from repro.core.relation import Relation
from repro.datalog.seminaive import evaluate_seminaive
from repro.parallel import ExecutionContext
from repro.queries.library import transitive_closure_program
from repro.workloads.generators import path_graph

CORES = os.cpu_count() or 1


def join_heavy_relation(n=160):
    """A scrambled functional graph: n classical tuples, dense joins."""
    return Relation.from_points(("x", "y"), [(i, (i * 7 + 3) % n) for i in range(n)])


def two_hop(r):
    return r.join(r.rename({"x": "y", "y": "z"})).project(("x", "z"))


def tc_fixpoint(context=None, n=10):
    return evaluate_seminaive(
        transitive_closure_program(), path_graph(n), context=context
    )


def _best(thunk, repeat=3):
    out = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        thunk()
        out = min(out, time.perf_counter() - t0)
    return out


# ----------------------------------------------------------- benchmark pairs


@pytest.mark.parametrize("mode", ["serial", "parallel"])
def test_two_hop_join(benchmark, mode):
    r = join_heavy_relation()
    if mode == "serial":
        benchmark(lambda: two_hop(r))
    else:
        ctx = ExecutionContext(workers=min(4, CORES) or 1, pool="process",
                               min_tuples=8)
        try:
            with ctx:
                benchmark(lambda: two_hop(r))
        finally:
            ctx.close()


@pytest.mark.parametrize("mode", ["serial", "parallel"])
def test_tc_fixpoint(benchmark, mode):
    if mode == "serial":
        benchmark(tc_fixpoint)
    else:
        ctx = ExecutionContext(workers=min(4, CORES) or 1, pool="process",
                               min_tuples=8)
        try:
            benchmark(lambda: tc_fixpoint(context=ctx))
        finally:
            ctx.close()


# ------------------------------------------------------------------- report


def test_report_parallel(capsys):
    """Print speedup and off-switch overhead; gate by core count.

    The 1.5x target needs real cores; CI pins a >= 2-core runner for
    the relaxed gate and the 4-core gate fires only where the hardware
    can deliver it.  The overhead gate always fires: compares the
    merged hook path (context-variable read, no context active) with
    the hooks short-circuited, which bounds what the backend costs
    everyone who never turns it on.
    """
    r = join_heavy_relation()
    serial = _best(lambda: two_hop(r))
    ctx = ExecutionContext(workers=4, pool="process", min_tuples=8)
    try:
        with ctx:
            two_hop(r)  # warm the pool: worker spawn is one-time cost
            parallel = _best(lambda: two_hop(r))
    finally:
        ctx.close()
    speedup = serial / parallel

    # off-switch overhead: the real hook (contextvar read returning
    # None) vs the hook short-circuited entirely
    import repro.core.relation as relation_module

    hook = relation_module.active_execution_context
    hot = lambda: [two_hop(r) for _ in range(3)]
    with_hook = _best(hot, repeat=5)
    relation_module.active_execution_context = lambda: None
    try:
        without_hook = _best(hot, repeat=5)
    finally:
        relation_module.active_execution_context = hook
    overhead = with_hook / without_hook - 1.0

    lines = [
        "",
        f"E17: parallel backend ({CORES} cores)",
        f"  two-hop serial         {serial:8.4f} s",
        f"  two-hop 4 workers      {parallel:8.4f} s  ({speedup:.2f}x)",
        f"  off-switch overhead    {overhead:+7.2%}  (target < 3%)",
    ]
    with capsys.disabled():
        print("\n".join(lines))

    assert overhead < 0.10, f"parallel hooks are no longer cheap: {overhead:.1%}"
    if CORES >= 4:
        assert speedup >= 1.5, f"parallel speedup regressed: {speedup:.2f}x"
    elif CORES >= 2:
        assert speedup >= 1.1, f"parallel speedup regressed: {speedup:.2f}x"
    # single core: correctness is covered by the differential suite;
    # a speedup gate would only measure scheduler noise


def test_modes_agree():
    """Same two-hop result and same fixpoint, serial vs parallel."""
    r = join_heavy_relation(60)
    serial = two_hop(r)
    ctx = ExecutionContext(workers=2, pool="thread", min_tuples=2)
    try:
        with ctx:
            parallel = two_hop(r)
        serial_fix = tc_fixpoint()
        parallel_fix = tc_fixpoint(context=ctx)
    finally:
        ctx.close()
    assert serial.equivalent(parallel)
    assert serial_fix.rounds == parallel_fix.rounds
    assert serial_fix["tc"].equivalent(parallel_fix["tc"])
