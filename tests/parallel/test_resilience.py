"""Unit tests for the fault-tolerant shard dispatch loop.

The chaos oracle pins that recovery preserves semantics end to end;
these tests pin the *mechanics* of each recovery path in isolation:
policy validation, retry with deterministic backoff, per-shard
deadlines, quarantine rescue and quarantine failure under each
``on_failure`` mode, pool restart after a worker crash, and the CLI
surface (exit code 5, the single-CPU auto-degrade).
"""

from __future__ import annotations

import contextlib
import io
import random
import time

import pytest

from repro.errors import ShardFailedError
from repro.parallel import BatchReport, DEFAULT_POLICY, ExecutionContext, ResiliencePolicy
from repro.parallel.resilience import _backoff_delay, _jitter_rng
from repro.runtime.faults import FaultRegistry, TransientEvaluationError


# ------------------------------------------------------------------- kernels
# module-level so process pools can pickle them by reference

_CALLS: dict = {}


def _flaky(payload):
    """Fails the first ``payload[1]`` calls for its key, then succeeds."""
    key, failures, value = payload
    seen = _CALLS.get(key, 0)
    _CALLS[key] = seen + 1
    if seen < failures:
        raise TransientEvaluationError(f"flaky {key} (call {seen + 1})")
    return value


def _double(payload):
    return payload * 2


def _slow(payload):
    time.sleep(payload)
    return payload


@pytest.fixture(autouse=True)
def _reset_calls():
    _CALLS.clear()


def _exhaust(registry: FaultRegistry, site: str, hits: int) -> None:
    """Burn the parent-side budget at ``site`` (the oracle's trick:
    export ships configuration, so worker-side copies keep full
    budgets while the ambient quarantine path sees a spent one)."""
    with registry:
        for _ in range(hits):
            with contextlib.suppress(Exception):
                registry.fire(site)


# -------------------------------------------------------------------- policy


class TestPolicy:
    def test_defaults(self):
        assert DEFAULT_POLICY.shard_timeout is None
        assert DEFAULT_POLICY.max_retries == 2
        assert DEFAULT_POLICY.on_failure == "serial"
        assert DEFAULT_POLICY.max_pool_restarts == 2

    def test_rejects_unknown_on_failure(self):
        with pytest.raises(ValueError, match="on_failure"):
            ResiliencePolicy(on_failure="shrug")

    def test_rejects_negative_retries(self):
        with pytest.raises(ValueError, match="max_retries"):
            ResiliencePolicy(max_retries=-1)

    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ValueError, match="shard_timeout"):
            ResiliencePolicy(shard_timeout=0.0)

    def test_rejects_negative_pool_restarts(self):
        with pytest.raises(ValueError, match="max_pool_restarts"):
            ResiliencePolicy(max_pool_restarts=-1)


# ------------------------------------------------------------------- backoff


class TestBackoff:
    def test_deterministic_for_a_fixed_seed(self):
        policy = ResiliencePolicy(jitter_seed=42)
        a = [_backoff_delay(policy, i, _jitter_rng(policy)) for i in range(4)]
        b = [_backoff_delay(policy, i, _jitter_rng(policy)) for i in range(4)]
        assert a == b

    def test_seed_inherited_from_active_registry(self):
        policy = ResiliencePolicy()  # jitter_seed=None
        with FaultRegistry(seed=7):
            assert _jitter_rng(policy).random() == random.Random(7).random()
        assert _jitter_rng(policy).random() == random.Random(0).random()

    def test_exponential_with_ceiling(self):
        policy = ResiliencePolicy(
            backoff_base=0.1, backoff_factor=2.0, backoff_max=0.3, jitter_seed=1
        )
        rng = _jitter_rng(policy)
        delays = [_backoff_delay(policy, i, rng) for i in range(6)]
        # jitter lands in [0.5, 1.0] of the nominal 0.1, 0.2, 0.3, 0.3...
        assert 0.05 <= delays[0] <= 0.1
        assert 0.1 <= delays[1] <= 0.2
        for d in delays[2:]:
            assert 0.15 <= d <= 0.3


# --------------------------------------------------------------------- retry


class TestRetry:
    def test_transient_failures_are_retried(self):
        ctx = ExecutionContext(
            workers=2, pool="thread",
            resilience=ResiliencePolicy(max_retries=2, backoff_base=0.001),
        )
        try:
            out = ctx.run_shards(_flaky, [("a", 2, 10), ("b", 0, 20)])
            assert out == [10, 20]
            assert ctx.retries == 2
            assert ctx.quarantined == 0
            assert ctx.last_report.retries == 2
        finally:
            ctx.close()

    def test_results_stay_in_payload_order(self):
        ctx = ExecutionContext(
            workers=4, pool="thread",
            resilience=ResiliencePolicy(max_retries=3, backoff_base=0.001),
        )
        try:
            payloads = [(f"k{i}", i % 3, i) for i in range(9)]
            assert ctx.run_shards(_flaky, payloads) == list(range(9))
        finally:
            ctx.close()

    def test_zero_retries_goes_straight_to_quarantine(self):
        ctx = ExecutionContext(
            workers=1, pool="thread",
            resilience=ResiliencePolicy(max_retries=0),
        )
        try:
            # one pool failure, then the quarantine re-execution succeeds
            out = ctx.run_shards(_flaky, [("q", 1, 5)])
            assert out == [5]
            assert ctx.retries == 0
            assert ctx.quarantined == 1
        finally:
            ctx.close()

    def test_batch_report_shape(self):
        report = BatchReport()
        assert report.as_dict() == {
            "retries": 0, "deadline_exceeded": 0, "quarantined": 0,
            "dropped": 0, "pool_restarts": 0,
        }


# ----------------------------------------------------------------- deadlines


class TestDeadline:
    def test_slow_shard_times_out_then_quarantine_rescues(self):
        ctx = ExecutionContext(
            workers=1, pool="thread",
            resilience=ResiliencePolicy(
                shard_timeout=0.05, max_retries=0, backoff_base=0.001
            ),
        )
        try:
            # the pool attempt exceeds the deadline; the serial
            # quarantine re-execution has no deadline and completes
            out = ctx.run_shards(_slow, [0.3])
            assert out == [0.3]
            assert ctx.deadline_exceeded == 1
            assert ctx.quarantined == 1
        finally:
            ctx.close()

    def test_fast_shards_never_hit_the_deadline(self):
        ctx = ExecutionContext(
            workers=2, pool="thread",
            resilience=ResiliencePolicy(shard_timeout=5.0),
        )
        try:
            assert ctx.run_shards(_double, [1, 2, 3]) == [2, 4, 6]
            assert ctx.deadline_exceeded == 0
        finally:
            ctx.close()


# ---------------------------------------------------------------- quarantine


class TestQuarantine:
    SITE = "worker._double"

    def _chaos(self, times: int, *, spend_parent: bool) -> FaultRegistry:
        registry = FaultRegistry(seed=5)
        registry.inject(
            self.SITE,
            error=TransientEvaluationError("poisoned shard"),
            times=times,
        )
        if spend_parent:
            _exhaust(registry, self.SITE, times)
        return registry

    def test_quarantine_rescues_after_retries_exhaust(self):
        # the worker-side (rehydrated) faults outlast max_retries, but
        # the parent-side budget is spent, so quarantine succeeds
        registry = self._chaos(times=3, spend_parent=True)
        ctx = ExecutionContext(
            workers=1, pool="thread",
            resilience=ResiliencePolicy(max_retries=2, backoff_base=0.001),
        )
        try:
            with registry:
                out = ctx.run_shards(_double, [4])
            assert out == [8]
            assert ctx.retries == 2
            assert ctx.quarantined == 1
            assert ctx.dropped_shards == 0
        finally:
            ctx.close()

    def test_poisoned_shard_raises_shard_failed(self):
        # parent budget NOT spent: the quarantine re-execution fails too
        registry = self._chaos(times=10, spend_parent=False)
        ctx = ExecutionContext(
            workers=1, pool="thread",
            resilience=ResiliencePolicy(max_retries=1, backoff_base=0.001),
        )
        try:
            with registry:
                with pytest.raises(ShardFailedError) as exc_info:
                    ctx.run_shards(_double, [4])
            error = exc_info.value
            assert error.op == "_double"
            assert error.shard == 0
            assert error.attempts == 2
            assert isinstance(error.cause, TransientEvaluationError)
            diag = error.diagnostics()
            assert diag["op"] == "_double" and diag["attempts"] == 2
            assert ctx.quarantined == 1
        finally:
            ctx.close()

    def test_on_failure_fail_skips_quarantine(self):
        registry = self._chaos(times=10, spend_parent=False)
        ctx = ExecutionContext(
            workers=1, pool="thread",
            resilience=ResiliencePolicy(
                max_retries=0, backoff_base=0.001, on_failure="fail"
            ),
        )
        try:
            with registry:
                with pytest.raises(ShardFailedError, match="forbids"):
                    ctx.run_shards(_double, [4])
            assert ctx.quarantined == 0
        finally:
            ctx.close()

    def test_partial_drops_only_the_poisoned_shard(self):
        registry = self._chaos(times=10, spend_parent=False)
        ctx = ExecutionContext(
            workers=1, pool="thread",
            resilience=ResiliencePolicy(
                max_retries=0, backoff_base=0.001, on_failure="partial"
            ),
        )
        try:
            with registry:
                out = ctx.run_shards(_double, [4, 5])
            # chaos poisons every shard of _double; with times=10 both
            # shards burn a pool attempt + quarantine and are dropped
            assert out == [None, None]
            assert ctx.dropped_shards == 2
            assert ctx.is_partial
            assert ctx.stats()["dropped_shards"] == 2
        finally:
            ctx.close()

    def test_partial_prefers_degraded_fallback(self):
        registry = self._chaos(times=10, spend_parent=False)
        ctx = ExecutionContext(
            workers=1, pool="thread",
            resilience=ResiliencePolicy(
                max_retries=0, backoff_base=0.001, on_failure="partial"
            ),
        )
        try:
            with registry:
                out = ctx.run_shards(_double, [4], degraded=lambda p: p * 2)
            # a semantically exact fallback is not a drop: the result
            # is complete and the context is not partial
            assert out == [8]
            assert ctx.dropped_shards == 0
            assert not ctx.is_partial
        finally:
            ctx.close()


# ------------------------------------------------------------- crash recovery


class TestCrashRecovery:
    SITE = "worker._double"

    def test_worker_crash_restarts_pool_then_degrades(self):
        # every fresh worker process rehydrates a full crash budget, so
        # the pool dies on each process attempt: restart, restart, then
        # degrade to threads — where the crash raises a retryable
        # WorkerCrashError (owner pid) and the retry succeeds
        registry = FaultRegistry(seed=3)
        registry.inject(self.SITE, crash=True, times=1)
        ctx = ExecutionContext(
            workers=2, pool="process",
            resilience=ResiliencePolicy(
                max_retries=2, backoff_base=0.001, max_pool_restarts=2
            ),
        )
        try:
            with registry:
                out = ctx.run_shards(_double, [21])
            assert out == [42]
            assert ctx.pool_restarts == 2
            assert ctx.fallbacks == 1
            assert ctx.pool_kind == "thread"
            assert ctx.retries >= 1  # the thread-side WorkerCrashError
        finally:
            ctx.close()

    def test_thread_pool_crash_is_a_plain_retry(self):
        registry = FaultRegistry(seed=3)
        registry.inject(self.SITE, crash=True, times=1)
        ctx = ExecutionContext(
            workers=1, pool="thread",
            resilience=ResiliencePolicy(max_retries=2, backoff_base=0.001),
        )
        try:
            with registry:
                out = ctx.run_shards(_double, [21])
            assert out == [42]
            assert ctx.pool_restarts == 0
            assert ctx.fallbacks == 0
            assert ctx.retries == 1
        finally:
            ctx.close()


# ----------------------------------------------------------------------- CLI


from repro.cli import EXIT_SHARD, main as cli_main  # noqa: E402
from repro.core.database import Database  # noqa: E402
from repro.core.relation import Relation  # noqa: E402
from repro.encoding.standard import encode_database  # noqa: E402


@pytest.fixture()
def workload(tmp_path):
    db = Database(
        {"E": Relation.from_points(("x", "y"), [(i, i + 1) for i in range(9)])}
    )
    db_path = tmp_path / "g.cdb"
    db_path.write_text(encode_database(db), encoding="utf-8")
    return str(db_path)


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


QUERY = "exists y (E(x, y) and E(y, z))"


class TestCli:
    def test_resilience_flags_accepted(self, workload):
        code, out, _ = _run_cli(
            ["query", workload, "--raw", QUERY,
             "--parallel", "--workers", "2",
             "--shard-timeout", "30", "--shard-retries", "3",
             "--on-shard-failure", "serial"]
        )
        assert code == 0
        assert out.strip()

    def test_exit_code_5_on_unrecoverable_shard(self, workload):
        # a poisoned join-shard site with an unspent parent budget:
        # retries exhaust, quarantine fails, the CLI reports exit 5
        registry = FaultRegistry(seed=9)
        registry.inject(
            "worker.join_shard",
            error=TransientEvaluationError("poisoned"),
            times=500,
        )
        with registry:
            code, _, err = _run_cli(
                ["query", workload, "--raw", QUERY,
                 "--parallel", "--workers", "2", "--shard-retries", "0"]
            )
        assert code == EXIT_SHARD == 5
        assert "shard failure" in err
        assert "diagnostics:" in err

    def test_single_cpu_parallel_runs_without_degrading(self, workload, monkeypatch):
        # there is no host-level auto-degrade: --parallel on one CPU
        # activates the pool as anywhere else — same result, no
        # degrade warning
        import repro.cli as cli_module

        monkeypatch.setattr(cli_module.os, "cpu_count", lambda: 1)
        argv = ["query", workload, "--raw", QUERY]
        code_s, out_s, _ = _run_cli(argv)
        code_p, out_p, err = _run_cli(argv + ["--parallel"])
        assert code_s == code_p == 0
        assert "serially" not in err
        assert sorted(out_s.splitlines()) == sorted(out_p.splitlines())

    def test_forced_workers_on_single_cpu_warns_but_runs(
        self, workload, monkeypatch
    ):
        import repro.cli as cli_module

        monkeypatch.setattr(cli_module.os, "cpu_count", lambda: 1)
        code, out, err = _run_cli(
            ["query", workload, "--raw", QUERY, "--parallel", "--workers", "2"]
        )
        assert code == 0
        assert out.strip()
        assert "single-CPU" in err  # the explicit-force warning stays
