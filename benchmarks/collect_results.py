#!/usr/bin/env python3
"""Regenerate every EXPERIMENTS.md table in one run.

Benchmarks (pytest-benchmark) measure *times*; this script collects the
*verdicts and counts* that the paper's theorems predict -- the
paper-vs-measured content of EXPERIMENTS.md.  Run:

    python benchmarks/collect_results.py
"""

from __future__ import annotations

import argparse
import json
import os
import time
from fractions import Fraction

from repro.cobjects.active_domain import ActiveDomain
from repro.cobjects.calculus import evaluate_ccalc_boolean
from repro.cobjects.fixpoint import FixpointQuery, evaluate_fixpoint
from repro.cobjects.calculus import CAnd, CExists, COr, CRelation
from repro.cobjects.types import Q, SetType
from repro.core.atoms import lt
from repro.core.database import Database
from repro.core.evaluator import evaluate
from repro.core.formula import constraint, exists, rel
from repro.core.relation import Relation
from repro.core.terms import as_term
from repro.datalog.engine import evaluate_program
from repro.encoding.ptime import (
    capture_boolean,
    cardinality_parity_program,
    graph_connectivity_program,
)
from repro.encoding.standard import encoding_size
from repro.genericity.automorphisms import moving
from repro.genericity.checks import check_boolean_generic, check_generic
from repro.genericity.ef_games import linear_order, min_distinguishing_rank
from repro.genericity.formula_search import search_sentence
from repro.linear.region import count_components
from repro.queries.library import (
    graph_connectivity_procedural,
    parity_ccalc,
    parity_procedural,
    transitive_closure_program,
)
from repro.workloads.generators import (
    interval_chain,
    path_graph,
    point_set,
    random_finite_graph,
    random_interval_database,
)


def timed(fn):
    t0 = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - t0


def header(text: str) -> None:
    print()
    print(f"## {text}")
    print()


def e2_fo_scaling() -> None:
    header("E2 -- closed-form FO evaluation: data-complexity scaling")
    f = exists("y", rel("S", "x") & rel("S", "y") & constraint(lt("x", "y")))
    print("| intervals | encoding bytes | eval time (s) |")
    print("|---|---|---|")
    for n in (2, 4, 8, 16, 32):
        db = random_interval_database(23, count=n)
        _, seconds = timed(lambda: evaluate(f, db))
        print(f"| {n} | {encoding_size(db)} | {seconds:.4f} |")


def e4_ef_table() -> None:
    header("E4 -- parity lower bound: EF distinguishing ranks")
    print("| n vs n+1 | min distinguishing rank | 2^(r-1) - 1 <= n |")
    print("|---|---|---|")
    for n in (1, 2, 3, 5, 7, 10):
        rank = min_distinguishing_rank(linear_order(n), linear_order(n + 1), 5)
        ok = "yes" if rank is not None and 2 ** (rank - 1) - 1 <= n else "-"
        print(f"| {n} vs {n+1} | {rank if rank is not None else '> 5'} | {ok} |")


def e4_search_table() -> None:
    header("E4 -- exhaustive sentence search (complete certificates)")
    family = [linear_order(k) for k in range(1, 5)]
    target = [k % 2 == 1 for k in range(1, 5)]
    print("| rank | variables | queries enumerated | parity sentence found |")
    print("|---|---|---|---|")
    for rank in (0, 1):
        result = search_sentence(family, target, variables=2, rank=rank)
        print(f"| {rank} | 2 | {result.queries_explored} | {result.found} |")
    pair = [linear_order(1), linear_order(2)]
    found = search_sentence(pair, [True, False], variables=2, rank=2)
    print(f"| 2 | 2 | {found.queries_explored} | size 1 vs 2 separated: {found.found} |")


def e4_hanf_table() -> None:
    header("E4 -- Hanf locality certificates (connectivity)")
    import sys

    sys.path.insert(0, "benchmarks")
    from bench_e4_inexpressibility import graph_structure

    from repro.genericity.locality import hanf_indistinguishable
    from repro.workloads.generators import cycle_graph, disjoint_cycles

    print("| instance pair | rank | Hanf certificate |")
    print("|---|---|---|")
    for n in (4, 5, 6):
        one = graph_structure(cycle_graph(2 * n))
        two = graph_structure(disjoint_cycles(n))
        certified = hanf_indistinguishable(one, two, 1)
        print(f"| {2*n}-cycle vs two {n}-cycles | 1 | {certified} |")


def e12_ablations() -> None:
    header("E12 -- engine ablations")
    from repro.core.physical import QueryPlanner, execute_plan
    from repro.datalog.seminaive import evaluate_seminaive

    db = path_graph(8)
    program = transitive_closure_program()
    _, naive_time = timed(lambda: evaluate_program(program, db))
    _, semi_time = timed(lambda: evaluate_seminaive(program, db))
    qdb = random_interval_database(71, count=10)
    f = exists(
        "y",
        rel("S", "x") & rel("S", "y") & constraint(lt("x", "y"))
        & constraint(lt("y", -20)),
    )
    _, direct_time = timed(lambda: evaluate(f, qdb))
    plan = QueryPlanner(mode="heuristic").logical_plan(f, qdb)
    _, plan_time = timed(lambda: execute_plan(plan, qdb))
    print("| ablation | baseline (s) | variant (s) | speedup |")
    print("|---|---|---|---|")
    print(
        f"| Datalog naive vs semi-naive | {naive_time:.3f} | {semi_time:.3f} "
        f"| {naive_time / semi_time:.1f}x |"
    )
    print(
        f"| direct eval vs optimized plan | {direct_time:.4f} | {plan_time:.4f} "
        f"| {direct_time / plan_time:.1f}x |"
    )


def e5_region_table() -> None:
    header("E5 -- region connectivity (procedural; not FO+)")
    print("| region | components (measured) | expected |")
    print("|---|---|---|")
    rows = [
        ("4 overlapping intervals", interval_chain(4, overlap=True)["S"], 1),
        ("4 separated intervals", interval_chain(4, overlap=False)["S"], 4),
    ]
    from repro.workloads.generators import checkerboard_region, staircase_region

    rows.append(("3x3 checkerboard (corner-glued)", checkerboard_region(3)["R"], 1))
    rows.append(("5-step staircase with gap", staircase_region(5, gap=True)["R"], 2))
    for name, region, expected in rows:
        got = count_components(region)
        print(f"| {name} | {got} | {expected} |")


def e6_e7_datalog_tables() -> None:
    header("E6 -- Datalog(not) evaluation is PTIME (scaling + rounds)")
    print("| path length | fixpoint rounds | tc tuples | time (s) |")
    print("|---|---|---|---|")
    for n in (2, 4, 8, 12):
        db = path_graph(n)
        result, seconds = timed(
            lambda: evaluate_program(transitive_closure_program(), db)
        )
        print(f"| {n} | {result.rounds} | {len(result['tc'])} | {seconds:.4f} |")

    header("E7 -- PTIME capture pipeline (Theorem 4.4, hard half)")
    print("| query | instance | reference | captured | agree |")
    print("|---|---|---|---|---|")
    for n in (2, 3, 4, 5):
        db = point_set(n)
        ref = parity_procedural(db)
        cap = capture_boolean(cardinality_parity_program("S"), db, "result_odd")
        print(f"| parity | {n} points | {ref} | {cap} | {ref == cap} |")
    for seed in range(3):
        db = random_finite_graph(seed, vertex_count=4, edge_probability=0.4)
        ref = graph_connectivity_procedural(db)
        cap = capture_boolean(graph_connectivity_program(), db, "connected")
        print(f"| connectivity | seed {seed} | {ref} | {cap} | {ref == cap} |")


def e8_crossover() -> None:
    header("E8 -- parity: C-CALC_1 vs the PTIME pipeline")
    print("| points | C-CALC_1 (s) | Datalog capture (s) | verdicts agree |")
    print("|---|---|---|---|")
    for n in (1, 2, 3):
        db = point_set(n)
        c_verdict, c_time = timed(lambda: evaluate_ccalc_boolean(parity_ccalc("S"), db))
        d_verdict, d_time = timed(
            lambda: capture_boolean(cardinality_parity_program("S"), db, "result_odd")
        )
        print(f"| {n} | {c_time:.4f} | {d_time:.4f} | {c_verdict == d_verdict} |")


def e9_tower() -> None:
    header("E9 -- hyper-exponential active domains (Theorems 5.3-5.5)")
    print("| constants | cells | |adom| h=0 | h=1 | h=2 |")
    print("|---|---|---|---|---|")
    for m in (0, 1, 2, 3):
        ad = ActiveDomain(point_set(m))
        h0 = ad.domain_size(Q)
        h1 = ad.domain_size(SetType(Q))
        h2 = ad.domain_size(SetType(SetType(Q)))
        h2_text = str(h2) if h2 < 10**9 else f"2^{h1}"
        print(f"| {m} | {ad.decomposition.cell_count} | {h0} | {h1} | {h2_text} |")


def e10_fixpoint() -> None:
    header("E10 -- C-CALC_0 + fixpoint == Datalog(not) on transitive closure")

    def R(name, *args):
        return CRelation(name, tuple(as_term(a) for a in args))

    step = COr(
        (
            R("E", "x", "y"),
            CExists(("z",), CAnd((R("TC", "x", "z"), R("E", "z", "y")))),
        )
    )
    print("| path length | identical pointsets | fixpoint time (s) | datalog time (s) |")
    print("|---|---|---|---|")
    for n in (3, 5, 7):
        db = path_graph(n)
        via_fix, t_fix = timed(
            lambda: evaluate_fixpoint(FixpointQuery("TC", ("x", "y"), step), db)
        )
        via_dl, t_dl = timed(
            lambda: evaluate_program(transitive_closure_program(), db)["tc"]
        )
        same = via_fix.equivalent(via_dl.rename({"a0": "x", "a1": "y"}))
        print(f"| {n} | {same} | {t_fix:.4f} | {t_dl:.4f} |")


def e11_genericity() -> None:
    header("E11 -- genericity (Definition 3.1)")

    def fo_query(database):
        f = exists("y", rel("S", "x") & rel("S", "y") & constraint(lt("x", "y")))
        return evaluate(f, database)

    def midpoints(database):
        values = sorted(t.sample_point()["x"] for t in database["S"].tuples)
        pts = {(a + b) / 2 for a in values for b in values}
        return Relation.from_points(("z",), [(p,) for p in pts])

    db = Database()
    db["S"] = Relation.from_points(("x",), [(0,), (4,)])
    phi = moving({0: Fraction(0), 2: Fraction(10), 4: Fraction(12)})
    rows = [
        ("FO self-join", check_generic(fo_query, point_set(3), count=8).generic, "query"),
        (
            "parity (boolean)",
            check_boolean_generic(lambda d: parity_procedural(d, "S"), point_set(3), count=8).generic,
            "query",
        ),
        ("FO+ midpoints", check_generic(midpoints, db, automorphisms=[phi]).generic, "NOT a query"),
    ]
    print("| mapping | passes automorphism checks | paper |")
    print("|---|---|---|")
    for name, got, paper in rows:
        print(f"| {name} | {got} | {paper} |")


def e14_profiles() -> None:
    """Run representative workloads under a tracer and fold the
    operator, QE and fixpoint figures of each run's trace document into
    ``BENCH_PROFILES.json`` next to this script, so benchmark entries
    carry phase costs, not just wall-clock."""
    header("E14 -- per-phase evaluation profiles (repro.obs)")
    from repro.datalog.seminaive import evaluate_seminaive
    from repro.obs import (
        Tracer,
        analyze_trace,
        fixpoint_rounds,
        qe_totals,
        relation_algebra,
        trace_document,
    )

    f = exists("y", rel("S", "x") & rel("S", "y") & constraint(lt("x", "y")))
    workloads = {
        "fo-self-join": lambda: evaluate(f, random_interval_database(23, count=16)),
        "datalog-naive-tc": lambda: evaluate_program(
            transitive_closure_program(), path_graph(8)
        ),
        "datalog-seminaive-tc": lambda: evaluate_seminaive(
            transitive_closure_program(), path_graph(8)
        ),
    }
    entries = {}
    print("| workload | total (s) | joins | projects | complements | qe vars | rounds |")
    print("|---|---|---|---|---|---|---|")
    for name, thunk in workloads.items():
        tracer = Tracer()
        with tracer:
            thunk()
        document = trace_document(tracer)
        breakdown = {
            "total_seconds": analyze_trace(document)["total_seconds"],
            "operators": relation_algebra(document),
            "qe": qe_totals(document),
            "fixpoint": fixpoint_rounds(document),
            "counters": document["metrics"]["counters"],
        }
        entries[name] = breakdown
        ops = {row["operator"]: row["calls"] for row in breakdown["operators"]}
        rounds = sum(breakdown["fixpoint"]["rounds"].values())
        print(
            f"| {name} | {breakdown['total_seconds']:.4f} "
            f"| {ops.get('join', 0)} | {ops.get('project', 0)} "
            f"| {ops.get('complement', 0)} "
            f"| {breakdown['qe']['eliminated_vars']} | {rounds} |"
        )
    out_path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "BENCH_PROFILES.json")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"schema": "repro.bench-profiles/1", "profiles": entries},
                  handle, indent=2, sort_keys=True)
        handle.write("\n")
    print()
    print(f"(machine-readable breakdowns written to {out_path})")


def e15_kernel_cache() -> None:
    """Measure the kernel-cache payoff and the ``--no-cache`` overhead,
    and fold the ratios into ``BENCH_KERNEL.json`` next to this script
    so the CI gate and EXPERIMENTS.md read the same numbers."""
    header("E15 -- kernel memo cache and interning payoff (repro.perf)")
    from repro.datalog.seminaive import evaluate_seminaive
    from repro.perf import kernel_cache_disabled, kernel_stats, reset_kernel_cache
    from repro.workloads.generators import slow_tc_workload

    def best(thunk, repeat=5):
        out = float("inf")
        for _ in range(repeat):
            _, seconds = timed(thunk)
            out = min(out, seconds)
        return out

    program, db = slow_tc_workload(6)
    tc = transitive_closure_program()
    chain = path_graph(10)
    workloads = {
        "datalog-naive-tc": lambda: evaluate_program(program, db),
        "datalog-naive-path": lambda: evaluate_program(tc, chain),
        "datalog-seminaive-path": lambda: evaluate_seminaive(tc, chain),
    }
    entries = {}
    print("| workload | cached (s) | no-cache (s) | speedup | hit rate |")
    print("|---|---|---|---|---|")
    for name, thunk in workloads.items():
        reset_kernel_cache()
        thunk()  # steady state: the memo cache is warm in a long run
        warm = best(thunk)
        stats = kernel_stats()
        looked_up = stats["cache.hits"] + stats["cache.misses"]
        hit_rate = stats["cache.hits"] / looked_up if looked_up else 0.0
        with kernel_cache_disabled():
            cold = best(thunk)
        entries[name] = {
            "cached_seconds": warm,
            "disabled_seconds": cold,
            "speedup": cold / warm,
            "hit_rate": hit_rate,
        }
        print(
            f"| {name} | {warm:.4f} | {cold:.4f} "
            f"| {cold / warm:.2f}x | {hit_rate:.1%} |"
        )
    out_path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "BENCH_KERNEL.json")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"schema": "repro.bench-kernel/1", "workloads": entries},
                  handle, indent=2, sort_keys=True)
        handle.write("\n")
    print()
    print(f"(machine-readable ratios written to {out_path})")


def e17_parallel() -> None:
    """Measure the sharded-backend speedup and the off-switch overhead,
    and fold the numbers into ``BENCH_PARALLEL.json`` next to this
    script so the CI gate and EXPERIMENTS.md read the same numbers.

    Speedup depends on the machine: the JSON records the core count
    alongside the ratios, and single-core runs still record the
    overhead envelope (the correctness story lives in the differential
    suite, not here).
    """
    header("E17 -- sharded parallel evaluation (repro.parallel)")
    import sys

    sys.path.insert(0, "benchmarks")
    from bench_e17_parallel import join_heavy_relation, tc_fixpoint, two_hop

    import repro.core.relation as relation_module
    from repro.parallel import ExecutionContext

    def best(thunk, repeat=3):
        out = float("inf")
        for _ in range(repeat):
            _, seconds = timed(thunk)
            out = min(out, seconds)
        return out

    cores = os.cpu_count() or 1
    r = join_heavy_relation()
    entries = {"cores": cores, "workloads": {}}
    print("| workload | serial (s) | 4 workers (s) | speedup |")
    print("|---|---|---|---|")
    workloads = {
        "two_hop_join": (lambda: two_hop(r), "with"),
        "tc_seminaive": (tc_fixpoint, "kwarg"),
    }
    ctx = ExecutionContext(workers=4, pool="process", min_tuples=8)
    try:
        for name, (thunk, style) in workloads.items():
            serial = best(thunk)
            if style == "with":
                with ctx:
                    thunk()  # warm the pool once
                    parallel = best(thunk)
            else:
                thunk(context=ctx)
                parallel = best(lambda: thunk(context=ctx))
            entries["workloads"][name] = {
                "serial_seconds": serial,
                "parallel_seconds": parallel,
                "speedup": serial / parallel,
            }
            print(
                f"| {name} | {serial:.4f} | {parallel:.4f} "
                f"| {serial / parallel:.2f}x |"
            )
    finally:
        ctx.close()

    hook = relation_module.active_execution_context
    hot = lambda: [two_hop(r) for _ in range(3)]
    with_hook = best(hot, repeat=5)
    relation_module.active_execution_context = lambda: None
    try:
        without_hook = best(hot, repeat=5)
    finally:
        relation_module.active_execution_context = hook
    overhead = with_hook / without_hook - 1.0
    entries["off_overhead"] = overhead
    print()
    print(f"off-switch overhead: {overhead:+.2%} (target < 3%)")

    out_path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "BENCH_PARALLEL.json")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"schema": "repro.bench-parallel/1", **entries},
                  handle, indent=2, sort_keys=True)
        handle.write("\n")
    print()
    print(f"(machine-readable ratios written to {out_path})")


def e19_stitching() -> None:
    """Measure worker-telemetry capture + stitching overhead on the
    traced E17 two-hop workload, and the cost of the capture off-switch
    on a bare-kernel dispatch batch, writing the numbers to
    ``BENCH_STITCHING.json`` so the CI gate and EXPERIMENTS.md agree.
    """
    header("E19 -- cross-process trace stitching (repro.obs.stitch)")
    import sys

    sys.path.insert(0, "benchmarks")
    from bench_e19_stitching import (
        PAYLOADS,
        WORKERS,
        _best,
        _ctx,
        _traced_two_hop,
        join_heavy_relation,
        shard_work,
    )
    from repro.obs import Tracer

    r = join_heavy_relation()

    ctx = _ctx(capture=False)
    try:
        _traced_two_hop(ctx, r)  # warm pool + kernel caches
        unstitched = _best(lambda: _traced_two_hop(ctx, r), repeat=5)
    finally:
        ctx.close()
    ctx = _ctx(capture=True)
    try:
        tracer = _traced_two_hop(ctx, r)
        stitched = _best(lambda: _traced_two_hop(ctx, r), repeat=5)
    finally:
        ctx.close()
    overhead = stitched / unstitched - 1.0
    worker_spans = sum(
        1 for s in tracer.spans if s.name.startswith("worker.")
    )

    ctx = _ctx()
    try:
        ctx.run_shards(shard_work, PAYLOADS)  # warm the pool
        untraced = _best(lambda: ctx.run_shards(shard_work, PAYLOADS),
                         repeat=5)
    finally:
        ctx.close()
    with Tracer():
        ctx = _ctx(capture=False)
        try:
            ctx.run_shards(shard_work, PAYLOADS)  # warm
            disabled = _best(lambda: ctx.run_shards(shard_work, PAYLOADS),
                             repeat=5)
        finally:
            ctx.close()
    off_overhead = disabled / untraced - 1.0

    print("| measurement | value |")
    print("|---|---|")
    print(f"| traced two-hop, capture off (s) | {unstitched:.4f} |")
    print(f"| traced two-hop, capture on (s) | {stitched:.4f} |")
    print(f"| stitching overhead | {overhead:+.2%} (target < 3%) |")
    print(f"| untraced dispatch (s) | {untraced:.4f} |")
    print(f"| off-switch dispatch (s) | {disabled:.4f} |")
    print(f"| off-switch overhead | {off_overhead:+.2%} (target < 1%) |")
    print(f"| stitched worker spans | {worker_spans} |")

    out_path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "BENCH_STITCHING.json")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "schema": "repro.bench-stitching/1",
                "cores": os.cpu_count() or 1,
                "workers": WORKERS,
                "unstitched_seconds": unstitched,
                "stitched_seconds": stitched,
                "stitching_overhead": overhead,
                "untraced_seconds": untraced,
                "off_switch_seconds": disabled,
                "off_switch_overhead": off_overhead,
                "stitched_worker_spans": worker_spans,
            },
            handle, indent=2, sort_keys=True,
        )
        handle.write("\n")
    print()
    print(f"(machine-readable numbers written to {out_path})")


def e21_analysis() -> None:
    """Time the trace-analysis pipeline on the synthetic 5,000-span
    document and the ``--memory`` backends on the E21 workloads,
    writing ``BENCH_ANALYSIS.json`` so the CI gate and EXPERIMENTS.md
    read the same numbers."""
    header("E21 -- trace analysis toolkit (repro.obs.analyze/flame/diff)")
    import sys

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from bench_e21_analysis import (
        SPAN_COUNT,
        _best,
        _e14_workloads,
        _traced,
        synthetic_trace,
    )
    from repro.obs import (
        analyze_trace,
        diff_traces,
        speedscope_document,
        validate_speedscope,
    )

    before = synthetic_trace()
    after = synthetic_trace()
    analyze_s = _best(lambda: analyze_trace(after), repeat=3)
    flame_s = _best(
        lambda: validate_speedscope(speedscope_document(after)), repeat=3
    )
    diff_s = _best(lambda: diff_traces(before, after), repeat=3)
    pipeline_s = analyze_s + flame_s + diff_s

    print("| measurement | value |")
    print("|---|---|")
    print(f"| spans analyzed | {SPAN_COUNT} |")
    print(f"| analyze (s) | {analyze_s:.4f} |")
    print(f"| flame export (s) | {flame_s:.4f} |")
    print(f"| trace diff (s) | {diff_s:.4f} |")
    print(f"| full pipeline (s) | {pipeline_s:.4f} (target < 1.0) |")

    memory = {}
    for name, thunk in _e14_workloads().items():
        base = _best(_traced(thunk), repeat=3)
        rss = _best(_traced(thunk, "rss"), repeat=3)
        traced = _best(_traced(thunk, "tracemalloc"), repeat=3)
        memory[name] = {
            "traced_seconds": base,
            "rss_seconds": rss,
            "rss_overhead": rss / base - 1.0,
            "tracemalloc_seconds": traced,
            "tracemalloc_overhead": traced / base - 1.0,
        }
        print(
            f"| --memory rss overhead, {name} | "
            f"{memory[name]['rss_overhead']:+.2%} (target < 5%) |"
        )
        print(
            f"| --memory tracemalloc overhead, {name} | "
            f"{memory[name]['tracemalloc_overhead']:+.2%} (reported, not gated) |"
        )

    out_path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "BENCH_ANALYSIS.json")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "schema": "repro.bench-analysis/1",
                "cores": os.cpu_count() or 1,
                "spans": SPAN_COUNT,
                "analyze_seconds": analyze_s,
                "flame_seconds": flame_s,
                "diff_seconds": diff_s,
                "pipeline_seconds": pipeline_s,
                "memory": memory,
            },
            handle, indent=2, sort_keys=True,
        )
        handle.write("\n")
    print()
    print(f"(machine-readable numbers written to {out_path})")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        description="regenerate the EXPERIMENTS.md tables"
    )
    parser.parse_args(argv)
    print("# Collected experimental results (regenerated)")
    e2_fo_scaling()
    e4_ef_table()
    e4_search_table()
    e4_hanf_table()
    e5_region_table()
    e6_e7_datalog_tables()
    e8_crossover()
    e9_tower()
    e10_fixpoint()
    e11_genericity()
    e12_ablations()
    e14_profiles()
    e15_kernel_cache()
    e17_parallel()
    e19_stitching()
    e21_analysis()
    print()


if __name__ == "__main__":
    main()
