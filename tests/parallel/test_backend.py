"""Unit tests for the execution context, pool handling, and metrics.

The differential suite checks *what* the parallel backend computes;
these tests check *how* it behaves as a component: construction-time
validation, activation scoping (including the owner-pid recursion
guard), the one failure path (a shard runs once, and the first that
raises or is lost fails its batch), the ``parallel.*`` metric stream,
and the CLI flags end to end.
"""

from __future__ import annotations

import contextlib
import io
import os
import pickle
import threading
import time

import pytest

import repro.parallel.backend as backend
from repro.cli import EXIT_BUDGET, EXIT_SHARD, main as cli_main
from repro.core.database import Database
from repro.core.gtuple import GTuple
from repro.core.relation import Relation
from repro.core.terms import Const, Var
from repro.encoding.standard import encode_database
from repro.errors import ShardFailedError
from repro.obs import Tracer
from repro.parallel import ExecutionContext, active_execution_context
from repro.parallel.context import POOL_KINDS
from repro.runtime.budget import Budget, DeadlineExceeded
from repro.runtime.guard import EvaluationGuard


# ------------------------------------------------------------- construction


class TestConstruction:
    def test_rejects_unknown_pool(self):
        with pytest.raises(ValueError, match="pool"):
            ExecutionContext(workers=2, pool="greenlet")

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError, match="workers"):
            ExecutionContext(workers=0)

    def test_auto_pool_resolution(self):
        assert ExecutionContext(workers=1).pool_kind == "thread"
        assert ExecutionContext(workers=2).pool_kind == "process"
        assert ExecutionContext(workers=2, pool="thread").pool_kind == "thread"

    def test_constants_exported(self):
        assert POOL_KINDS == ("auto", "process", "thread")


# --------------------------------------------------------------- activation


class TestActivation:
    def test_active_only_inside_with(self):
        ctx = ExecutionContext(workers=1, pool="thread")
        assert active_execution_context() is None
        with ctx:
            assert active_execution_context() is ctx
            with ctx:  # re-entrant
                assert active_execution_context() is ctx
            assert active_execution_context() is ctx
        assert active_execution_context() is None
        ctx.close()

    def test_closed_context_is_invisible(self):
        ctx = ExecutionContext(workers=1, pool="thread")
        with ctx:
            ctx.close()
            assert active_execution_context() is None

    def test_foreign_pid_context_is_invisible(self):
        ctx = ExecutionContext(workers=1, pool="thread")
        with ctx:
            ctx._owner_pid = os.getpid() + 1  # simulate a forked worker
            assert active_execution_context() is None
            ctx._owner_pid = os.getpid()
        ctx.close()

    def test_eligibility_threshold(self):
        ctx = ExecutionContext(workers=2, pool="thread", min_tuples=8)
        assert not ctx.eligible(7)
        assert ctx.eligible(8)
        ctx.close()

    def test_closed_context_refuses_work(self):
        ctx = ExecutionContext(workers=1, pool="thread")
        ctx.close()
        with pytest.raises(RuntimeError):
            ctx.run_shards(str, [1])


# ------------------------------------------------------------ pool fallback


class TestPoolFallback:
    def test_unpicklable_payload_degrades_to_threads(self):
        ctx = ExecutionContext(workers=2, pool="process")
        try:
            # a lambda cannot cross a process boundary: the batch fails
            # with the pickling error as its cause, on the pool it was
            # given (nothing degrades to threads mid-run)
            with pytest.raises(ShardFailedError) as failed:
                ctx.run_shards(lambda p: p * 2, [1, 2, 3])
            assert failed.value.op == "<lambda>"
            assert failed.value.shard == 0
            assert "pickle" in str(failed.value.cause)
            assert ctx.pool_kind == "process"
            assert ctx.fallbacks == 0
            assert ctx.stats()["fallbacks"] == 0
        finally:
            ctx.close()

    def test_process_pool_runs_picklable_work(self):
        ctx = ExecutionContext(workers=2, pool="process")
        try:
            assert ctx.run_shards(len, [[1], [1, 2]]) == [1, 2]
            assert ctx.fallbacks == 0
            assert ctx.batches == 1
        finally:
            ctx.close()

    def test_empty_batch_is_free(self):
        ctx = ExecutionContext(workers=2, pool="process")
        try:
            assert ctx.run_shards(len, []) == []
            assert ctx.batches == 0
        finally:
            ctx.close()


# --------------------------------------------------------- one failure path
# module-level kernels, so process pools can pickle them by reference

_CALLS = []
_CALLS_LOCK = threading.Lock()


def _poisoned(payload):
    """Raises on payload 2; counts every call (thread pools share it)."""
    with _CALLS_LOCK:
        _CALLS.append(payload)
    if payload == 2:
        raise ValueError(f"poisoned shard {payload}")
    return payload * 10


def _exit_worker(payload):
    os._exit(13)


def _sleep(seconds):
    time.sleep(seconds)
    return seconds


class TestShardFailure:
    def setup_method(self):
        _CALLS.clear()

    def test_raising_kernel_runs_once_on_threads(self):
        ctx = ExecutionContext(workers=2, pool="thread")
        try:
            with pytest.raises(ShardFailedError) as failed:
                ctx.run_shards(_poisoned, [1, 2, 3])
        finally:
            ctx.close()
        error = failed.value
        assert (error.op, error.shard) == ("_poisoned", 1)
        assert isinstance(error.cause, ValueError)
        assert error.diagnostics() == {
            "cause": "ValueError", "op": "_poisoned", "shard": 1,
        }
        assert "shard 1 of _poisoned" in str(error)
        # the poisoned shard ran exactly once: nothing retried it or
        # re-ran it in-process
        assert _CALLS.count(2) == 1
        assert len(_CALLS) <= 3

    def test_raising_kernel_on_process_pool(self):
        ctx = ExecutionContext(workers=2, pool="process")
        try:
            with pytest.raises(ShardFailedError) as failed:
                ctx.run_shards(_poisoned, [1, 2, 3])
            # the pool survives a kernel exception and runs the next batch
            assert ctx.run_shards(_poisoned, [1, 3]) == [10, 30]
        finally:
            ctx.close()
        assert (failed.value.op, failed.value.shard) == ("_poisoned", 1)
        assert isinstance(failed.value.cause, ValueError)
        assert _CALLS == []  # the kernel ran in the workers, not here

    def test_lost_worker_fails_the_batch_and_close_returns(self):
        ctx = ExecutionContext(workers=2, pool="process")
        try:
            with pytest.raises(ShardFailedError) as failed:
                ctx.run_shards(_exit_worker, [1, 2])
        finally:
            ctx.close()
        assert ctx.closed
        assert failed.value.op == "_exit_worker"
        assert failed.value.diagnostics()["cause"] == "BrokenProcessPool"

    def test_results_keep_payload_order(self):
        ctx = ExecutionContext(workers=3, pool="thread")
        try:
            assert ctx.run_shards(_sleep, [0.03, 0.0, 0.01]) == [0.03, 0.0, 0.01]
        finally:
            ctx.close()

    def test_guard_deadline_binds_the_wait(self):
        ctx = ExecutionContext(workers=1, pool="thread")
        guard = EvaluationGuard(Budget(deadline_seconds=0.1))
        try:
            with guard, pytest.raises(DeadlineExceeded):
                ctx.run_shards(_sleep, [0.6])
        finally:
            ctx.close()


# -------------------------------------------------------------- picklability


class TestPicklability:
    def test_terms_and_atoms_round_trip(self):
        from repro.core.atoms import lt

        v, c = Var("x"), Const(3)
        a = lt(v, c)
        assert pickle.loads(pickle.dumps(v)) == v
        assert pickle.loads(pickle.dumps(c)) == c
        assert pickle.loads(pickle.dumps(a)) == a

    def test_gtuple_round_trip_reinterns(self):
        r = Relation.from_points(("x", "y"), [(0, 1), (1, 2)])
        for t in r.tuples:
            clone = pickle.loads(pickle.dumps(t))
            assert clone is t  # canonical interning in this process

    def test_relation_survives_worker_round_trip(self):
        r = Relation.from_points(("x", "y"), [(i, i + 1) for i in range(6)])
        ctx = ExecutionContext(workers=2, pool="process")
        try:
            back = ctx.run_shards(_identity_tuples, [tuple(r.tuples)])[0]
            assert list(back) == list(r.tuples)
            assert ctx.fallbacks == 0
        finally:
            ctx.close()


def _identity_tuples(tuples):
    # module-level so the process pool can pickle it by reference
    assert all(isinstance(t, GTuple) for t in tuples)
    return tuples


# ------------------------------------------------------------------ metrics


class TestMetrics:
    def test_parallel_metrics_emitted(self):
        e = Relation.from_points(("x", "y"), [(i, i + 1) for i in range(10)])
        ctx = ExecutionContext(workers=2, pool="thread", min_tuples=2)
        tracer = Tracer()
        try:
            with tracer, ctx:
                e.join(e.rename({"x": "y", "y": "z"})).project(("x", "z"))
        finally:
            ctx.close()
        counters = tracer.metrics.counters
        histograms = tracer.metrics.histograms
        assert counters["parallel.join.calls"] >= 1
        assert counters["parallel.project.calls"] >= 1
        assert "parallel.shards" in histograms
        assert "parallel.skew" in histograms
        assert "parallel.worker_seconds" in histograms
        assert "parallel.utilization" in histograms

    def test_no_parallel_metrics_without_context(self):
        e = Relation.from_points(("x", "y"), [(i, i + 1) for i in range(10)])
        tracer = Tracer()
        with tracer:
            e.join(e.rename({"x": "y", "y": "z"}))
        assert not any(k.startswith("parallel.") for k in tracer.metrics.counters)


# ---------------------------------------------------------------------- CLI


@pytest.fixture()
def workload(tmp_path):
    db = Database(
        {"E": Relation.from_points(("x", "y"), [(i, i + 1) for i in range(9)])}
    )
    db_path = tmp_path / "g.cdb"
    db_path.write_text(encode_database(db), encoding="utf-8")
    dl = tmp_path / "tc.dl"
    dl.write_text(
        "tc(x, y) :- E(x, y).\ntc(x, z) :- tc(x, y), E(y, z).\n", encoding="utf-8"
    )
    return str(db_path), str(dl)


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    return code, out.getvalue()


def _run_cli_err(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


QUERY = "exists y (E(x, y) and E(y, z))"


class TestCli:
    def test_query_parallel_matches_serial(self, workload):
        db, _ = workload
        argv = ["query", db, "--raw", "exists y (E(x, y) and E(y, z))"]
        code_s, out_s = _run_cli(argv)
        code_p, out_p = _run_cli(argv + ["--parallel", "--workers", "2"])
        assert code_s == code_p == 0
        # shard concatenation may reorder the printed tuples
        assert sorted(out_s.splitlines()) == sorted(out_p.splitlines())

    def test_datalog_parallel_matches_serial(self, workload):
        db, dl = workload
        argv = ["datalog", db, dl, "--show", "tc"]
        code_s, out_s = _run_cli(argv)
        code_p, out_p = _run_cli(argv + ["--parallel", "--workers", "2"])
        assert code_s == code_p == 0
        assert sorted(out_s.splitlines()) == sorted(out_p.splitlines())

    def test_explain_accepts_parallel_flags(self, workload):
        db, dl = workload
        code, out = _run_cli(
            ["explain", db, dl, "--parallel", "--workers", "2"]
        )
        assert code == 0
        assert out.strip()

    @pytest.mark.parametrize("command", ["query", "datalog", "explain"])
    def test_three_parallel_flags(self, command, capsys):
        with pytest.raises(SystemExit) as done:
            cli_main([command, "--help"])
        assert done.value.code == 0
        flags = {
            word.strip(",[]") for word in capsys.readouterr().out.split()
            if word.startswith(("--", "[--"))
        }
        assert {"--parallel", "--workers", "--no-stitch"} <= flags
        # nothing else names a shard, a pool policy or a retry
        assert not {
            f for f in flags
            if any(k in f for k in ("shard", "retr", "strateg", "failure"))
        }

    def test_single_cpu_parallel_runs_without_degrading(self, workload, monkeypatch):
        # there is no host-level auto-degrade: --parallel on one CPU
        # activates the pool as anywhere else — same result, no
        # degrade warning
        import repro.cli as cli_module

        db, _ = workload
        monkeypatch.setattr(cli_module.os, "cpu_count", lambda: 1)
        argv = ["query", db, "--raw", QUERY]
        code_s, out_s, _ = _run_cli_err(argv)
        code_p, out_p, err = _run_cli_err(argv + ["--parallel"])
        assert code_s == code_p == 0
        assert "serially" not in err
        assert sorted(out_s.splitlines()) == sorted(out_p.splitlines())

    def test_forced_workers_on_single_cpu_warns_but_runs(
        self, workload, monkeypatch
    ):
        import repro.cli as cli_module

        db, _ = workload
        monkeypatch.setattr(cli_module.os, "cpu_count", lambda: 1)
        code, out, err = _run_cli_err(
            ["query", db, "--raw", QUERY, "--parallel", "--workers", "2"]
        )
        assert code == 0
        assert out.strip()
        assert "single-CPU" in err  # the explicit-force warning stays

    def test_raising_kernel_exits_5_with_diagnostics(self, workload, monkeypatch):
        db, dl = workload

        def join_shard(payload):
            raise RuntimeError("poisoned join shard")

        # --workers 1 resolves to a thread pool, which runs the patch
        monkeypatch.setattr(backend, "join_shard", join_shard)
        code, out, err = _run_cli_err(
            ["datalog", db, dl, "--parallel", "--workers", "1"]
        )
        assert code == EXIT_SHARD == 5
        assert "shard failure: shard 0 of join_shard failed" in err
        assert "diagnostics: cause=RuntimeError, op=join_shard, shard=0" in err
        assert "fixpoint" not in out

    def test_timeout_binds_a_sleeping_shard(self, workload, monkeypatch):
        db, dl = workload
        real = backend.join_shard

        def join_shard(payload):
            time.sleep(0.6)
            return real(payload)

        monkeypatch.setattr(backend, "join_shard", join_shard)
        code, _, err = _run_cli_err(
            ["datalog", db, dl, "--parallel", "--workers", "1",
             "--timeout", "0.2"]
        )
        assert code == EXIT_BUDGET == 3
        assert "budget exceeded: deadline of 0.2s exceeded" in err
        assert "site=parallel.dispatch" in err
        assert "shard failure" not in err
