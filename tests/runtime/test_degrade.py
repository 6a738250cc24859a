"""Graceful degradation: retries and partial fallbacks under policy."""

import pytest

from repro.datalog.engine import FixpointResult
from repro.datalog.seminaive import evaluate_seminaive
from repro.runtime.budget import Budget, RoundLimitExceeded
from repro.runtime.degrade import DegradePolicy, run_with_policy
from repro.runtime.faults import FaultRegistry, TransientEvaluationError
from repro.workloads.generators import slow_tc_workload


class TestTransientRetry:
    def test_single_transient_failure_is_retried(self):
        program, db = slow_tc_workload(4)
        with FaultRegistry() as reg:
            reg.inject("datalog.round", times=1)
            result = run_with_policy(program, db)
        assert result.reached_fixpoint
        # first attempt died on round 1, second ran clean
        assert reg.hits["datalog.round"] > result.rounds

    def test_retries_exhausted_reraises(self):
        program, db = slow_tc_workload(4)
        with FaultRegistry() as reg:
            reg.inject("datalog.round", times=5)
            with pytest.raises(TransientEvaluationError):
                run_with_policy(
                    program, db, policy=DegradePolicy(retry_transient=2)
                )

    def test_zero_retries_fails_fast(self):
        program, db = slow_tc_workload(4)
        with FaultRegistry() as reg:
            reg.inject("datalog.round", times=1)
            with pytest.raises(TransientEvaluationError):
                run_with_policy(
                    program, db, policy=DegradePolicy(retry_transient=0)
                )


class TestPartialFallback:
    def test_round_budget_falls_back_to_partial(self):
        program, db = slow_tc_workload(8)
        result = run_with_policy(program, db, budget=Budget(max_rounds=3))
        assert isinstance(result, FixpointResult)
        assert not result.reached_fixpoint
        assert result.cut is not None
        assert result["tc"].contains_point([0, 1])

    def test_policy_can_forbid_partial(self):
        program, db = slow_tc_workload(8)
        with pytest.raises(RoundLimitExceeded):
            run_with_policy(
                program,
                db,
                budget=Budget(max_rounds=3),
                policy=DegradePolicy(partial_on_budget=False),
            )

    def test_explicit_fallback_round_cap(self):
        program, db = slow_tc_workload(8)
        result = run_with_policy(
            program,
            db,
            budget=Budget(max_rounds=3),
            policy=DegradePolicy(fallback_max_rounds=2),
        )
        assert not result.reached_fixpoint
        assert result.rounds == 2

    def test_engine_parameter_swaps_in_seminaive(self):
        program, db = slow_tc_workload(8)
        result = run_with_policy(
            program, db, budget=Budget(max_rounds=3), engine=evaluate_seminaive
        )
        assert not result.reached_fixpoint
        assert result.cut is not None

