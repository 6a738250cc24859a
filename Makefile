# Convenience targets (mirror the commands in README / CONTRIBUTING)

# bash, so that `set -o pipefail` makes a failing pytest fail the
# targets that pipe it through tee
SHELL := /bin/bash

.PHONY: install test test-quick bench results examples explain-demo ci chaos perfbench-check clean

install:
	python setup.py develop

test:
	set -o pipefail; pytest tests/ 2>&1 | tee test_output.txt

test-quick:
	HYPOTHESIS_PROFILE=quick pytest tests/

bench:
	set -o pipefail; pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

results:
	python benchmarks/collect_results.py

# most of what .github/workflows/ci.yml runs; tier-1 runs in dev mode
# (-X dev) with unclosed files and exceptions in __del__ as errors; the
# per-test timeout needs the pytest-timeout plugin, which local
# environments may not have.  Left out: the E17 (parallel speedup) and
# E19 (stitching) gates, `make examples`, the sample trace steps, and
# the parallel-differential and chaos jobs (`make chaos` runs the
# latter)
DEV_PYTEST = python -X dev -m pytest tests/ \
	-W error::ResourceWarning -W error::pytest.PytestUnraisableExceptionWarning

ci:
	@if python -c "import pytest_timeout" 2>/dev/null; then \
		$(DEV_PYTEST) --timeout=300 --timeout-method=thread; \
	else \
		echo "pytest-timeout not installed; running without per-test timeouts"; \
		$(DEV_PYTEST); \
	fi
	pytest benchmarks/bench_e13_budget_overhead.py -s
	pytest benchmarks/bench_e14_trace_overhead.py -s
	pytest benchmarks/bench_e15_kernel_cache.py -s
	pytest benchmarks/bench_e18_resilience.py -s --benchmark-disable
	pytest benchmarks/bench_e21_analysis.py -s --benchmark-disable
	$(MAKE) perfbench-check

# the benchmark's own correctness checks (CI's perfbench job): its
# self-tests, then one short run of every workload untraced and one
# traced (--trace 1 adds the harness-vs-engine cross-checks: cache
# hits and misses, join calls, critical-path reconciliation); the last
# line of every run must report "correct": true and "failed": 0
perfbench-check:
	PYTHONPATH=src:. python -m pytest perfbench/tests
	@mkdir -p .perfbench
	@for trace in 0 1; do for workload in tc_serial fo_session tc_parallel; do \
		python3 perfbench/run.py --workload $$workload --seed 1 --seconds 1 --trace $$trace \
			> .perfbench/check.log || exit 1; \
		cat .perfbench/check.log; \
		python -c 'import json, sys; r = json.loads(sys.stdin.readlines()[-1]); sys.exit(not (r["correct"] is True and r["failed"] == 0))' \
			< .perfbench/check.log || { echo "$$workload (--trace $$trace): incorrect answer or failed operations"; exit 1; }; \
	done; done

# the cross-process chaos matrix: deterministic faults and worker
# crashes injected inside pool workers; the oracle must still match
# the serial reference byte for byte with guard parity
chaos:
	REPRO_CHAOS=1 python tests/parallel/oracle.py
	REPRO_CHAOS=1 REPRO_DIFF_POOL=process python tests/parallel/oracle.py

# the observability walkthrough: trace a transitive-closure run, write
# its JSON trace (TRACE_OUT overrides the path) and print its report
explain-demo:
	python examples/observability_profile.py

examples:
	@for script in examples/*.py; do \
		echo "== $$script =="; \
		python $$script || exit 1; \
	done

clean:
	rm -rf build dist src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
