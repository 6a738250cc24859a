"""E15 -- kernel memo cache and interning pool payoff.

The fast path (:mod:`repro.perf`) must pay for itself twice over: the
memoized kernel (``frozenset(atoms)`` -> bounds matrix / canonical form /
satisfiability) should make fixpoint workloads measurably faster, and
the ``--no-cache`` escape hatch must cost nearly nothing -- every
kernel method's disabled branch is a single attribute read in front of
the original straight-line code.

Targets (EXPERIMENTS.md E15): >= 1.5x cached speedup on the Datalog
transitive-closure workloads; < 2% overhead on the disabled path
versus an inline kernel.  ``test_report_kernel_cache`` prints the
measured ratios directly (plain
``pytest benchmarks/bench_e15_kernel_cache.py -s``) with lenient hard
gates sized for timing noise.
"""

import time

import pytest

from repro.core.atoms import le, lt
from repro.core.theory import DENSE_ORDER
from repro.datalog.engine import evaluate_program
from repro.datalog.seminaive import evaluate_seminaive
from repro.perf import kernel_cache_disabled, reset_kernel_cache
from repro.perf.columnar import BoundsMatrix
from repro.queries.library import transitive_closure_program
from repro.workloads.generators import path_graph, slow_tc_workload


def _tc_thunks():
    program, db = slow_tc_workload(6)
    tc = transitive_closure_program()
    chain = path_graph(10)
    return {
        "datalog-naive-tc": lambda: evaluate_program(program, db),
        "datalog-naive-path": lambda: evaluate_program(tc, chain),
        "datalog-seminaive-path": lambda: evaluate_seminaive(tc, chain),
    }


# ----------------------------------------------------------- benchmark pairs


@pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cached"])
def test_tc_fixpoint(benchmark, cached):
    program, db = slow_tc_workload(6)
    if cached:
        reset_kernel_cache()
        benchmark(lambda: evaluate_program(program, db))
    else:
        def run():
            with kernel_cache_disabled():
                evaluate_program(program, db)
        benchmark(run)


@pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cached"])
def test_seminaive_fixpoint(benchmark, cached):
    program = transitive_closure_program()
    db = path_graph(10)
    if cached:
        reset_kernel_cache()
        benchmark(lambda: evaluate_seminaive(program, db))
    else:
        def run():
            with kernel_cache_disabled():
                evaluate_seminaive(program, db)
        benchmark(run)


# ------------------------------------------------------------------- report


def _best(thunk, repeat=5):
    out = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        thunk()
        out = min(out, time.perf_counter() - t0)
    return out


def _inline_kernel(conjunction):
    """The uncached kernel the theory calls, inlined (seed
    canonicalize_if_satisfiable with the bounds matrix)."""
    kernel = BoundsMatrix(conjunction)
    if not kernel.is_satisfiable():
        return None
    return kernel.canonical_atoms()


def test_report_kernel_cache(capsys):
    """Print cached/disabled ratios; fail only on gross regressions.

    Single-shot timings are noisy, so the hard gates here are lenient
    (>= 1.5x on the naive TC speedup, < 10% on the disabled micro
    path); the honest numbers come from the benchmark pairs above via
    pytest-benchmark.  EXPERIMENTS.md records the 1.5x / 2% targets.
    """
    lines = ["", "E15: kernel cache payoff (disabled / cached, best of 5)"]
    speedups = {}
    for name, thunk in _tc_thunks().items():
        reset_kernel_cache()
        thunk()  # warm the memo cache once; steady state is what ships
        warm = _best(thunk)
        with kernel_cache_disabled():
            cold = _best(thunk)
        speedups[name] = cold / warm
        lines.append(f"  {name:22s} {cold / warm:6.3f}x")

    conjs = [[lt("x", "y"), le("y", i), le(i - 7, "x")] for i in range(40)]

    def run_inline():
        for c in conjs:
            _inline_kernel(c)

    def run_disabled_path():
        for c in conjs:
            DENSE_ORDER.canonicalize_if_satisfiable(c)

    def batched(thunk):
        return _best(lambda: [thunk() for _ in range(20)], repeat=40)

    with kernel_cache_disabled():
        inline_time = batched(run_inline)
        disabled_time = batched(run_disabled_path)
    overhead = disabled_time / inline_time - 1.0
    lines.append(
        f"  no-cache overhead      {overhead:+6.2%}  (target < 2%)"
    )
    lines.append(
        f"  worst tc speedup       "
        f"{min(speedups.values()):6.3f}x  (target >= 1.5x)"
    )
    with capsys.disabled():
        print("\n".join(lines))

    worst = speedups["datalog-naive-tc"]
    assert worst >= 1.5, f"kernel cache payoff regressed: {worst:.2f}x on TC"
    assert overhead < 0.10, f"disabled path is no longer cheap: {overhead:.1%}"


def test_modes_agree():
    """Same fixpoint, tuple for tuple, with and without the fast path."""
    program, db = slow_tc_workload(5)
    reset_kernel_cache()
    cached = evaluate_program(program, db)
    with kernel_cache_disabled():
        plain = evaluate_program(program, db)
    for name in cached.database.names():
        assert cached[name].tuples == plain[name].tuples
