# Developer entry points.  Everything runs from the repo root with the
# in-tree package (PYTHONPATH=src); no installation step.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-fast test-full coverage scenarios docs-check bench \
	bench-analysis bench-campaign bench-resume bench-multicore \
	bench-chaos bench-serve bench-selftest chaos check examples serve-smoke

# Tier-1: the full test suite.
test:
	$(PYTHON) -m pytest -x -q

# Fast tier: everything except the `slow`-marked matrix/sharding grids
# (see pytest.ini + docs/TESTING.md).  CI runs this on push.
test-fast:
	$(PYTHON) -m pytest -x -q -m "not slow"

# Full tier: tier-1 under its tier name (CI's PR gate runs the same
# suite through `coverage` below).
test-full: test

# Full tier under coverage with the recorded baseline floor (CI PR
# gate).  Needs pytest-cov (CI installs it; it is not part of the
# stdlib-only runtime).  Raise the floor when coverage rises; never
# lower it to make a PR pass.
COV_FAIL_UNDER ?= 80
coverage:
	$(PYTHON) -m pytest -q --cov=repro --cov-report=term \
		--cov-report=xml --cov-fail-under=$(COV_FAIL_UNDER)

# Worker-chaos smoke: the fast tier of tests/test_worker_chaos.py --
# SIGKILL/hang/quarantine one worker of a real process campaign and
# demand byte identity (docs/TESTING.md "Worker chaos").  CI runs this
# on push; the slow chaos grids run in the PR tier under `coverage`.
chaos:
	$(PYTHON) -m pytest tests/test_worker_chaos.py -x -q -m "not slow"

# The adversarial scenario matrix: every scenario across the full
# executor x burst-memo grid (same code the slow test tier runs).
scenarios:
	$(PYTHON) -m repro.scenarios --grid

# The full gate in one command: tier-1 tests + docs freshness.
check: test docs-check

# Docs cannot rot: every symbol and CLI flag named in docs/API.md must
# resolve against the live code.
docs-check:
	$(PYTHON) -m pytest tests/test_docs_api.py -q

# Refresh benchmarks/BENCH_pipeline.json (per-check, crawl/campaign
# throughput, workers scaling curve, analysis aggregation).
bench:
	$(PYTHON) benchmarks/run_bench.py

# Just the analysis aggregation bench (100K synthetic reports): the
# columnar kernels vs the seed list implementations kept as the test
# oracle (tests/list_analysis.py), results asserted equal; other entries
# in BENCH_pipeline.json are preserved.
bench-analysis:
	$(PYTHON) benchmarks/run_bench.py --only analysis_aggregation

# Just the heavy-traffic campaign bench (100K checks, burst memo on/off,
# subprocess-isolated peak RSS); other entries are preserved.  Tune with
# e.g. `make bench-campaign CAMPAIGN_CHECKS=200000`.
CAMPAIGN_CHECKS ?= 100000
bench-campaign:
	$(PYTHON) benchmarks/run_bench.py --only campaign_scaling \
		--campaign-checks $(CAMPAIGN_CHECKS)

# Just the kill-safe resume bench: checkpoint tax, day-boundary SIGKILL,
# resume overhead + peak RSS, byte-identity check.  Tune with e.g.
# `make bench-resume RESUME_CHECKS=500000`.
RESUME_CHECKS ?= 200000
bench-resume:
	$(PYTHON) benchmarks/run_bench.py --only campaign_resume \
		--resume-checks $(RESUME_CHECKS)

# Just the multicore scaling curve: workers x {local,process} x memo
# {on,off}, checks/s + per-day boundary overhead + fleet memo misses,
# byte identity across every cell.  `MULTICORE_FAST=1` runs the reduced
# 3-cell CI grid to a scratch file, leaving the recorded full-grid
# numbers in BENCH_pipeline.json untouched.
bench-multicore:
	$(PYTHON) benchmarks/run_bench.py --only multicore_scaling \
		$(if $(MULTICORE_FAST),--multicore-fast --heavy-rounds 2 \
		--out bench_multicore_ci.json)

# Just the worker-failure supervision bench: recovery latency under a
# mid-day worker SIGKILL, no-fault supervision overhead, byte identity
# demanded under both.
bench-chaos:
	$(PYTHON) benchmarks/run_bench.py --only worker_failure

# Just the serving-latency traffic replay: live HTTP service, mixed
# read/write stream, p50/p99 check latency + sustained checks/s.  Tune
# with e.g. `make bench-serve SERVE_REQUESTS=5000`.
SERVE_REQUESTS ?= 2000
bench-serve:
	$(PYTHON) benchmarks/run_bench.py --only serving_latency \
		--serve-requests $(SERVE_REQUESTS)

# The benchmark's self-test (perfbench/): corrupted outputs must fail
# the output checks, and a tiny traced run of every workload must reach
# every layer it requires.  It fails when a traced callable is renamed
# or loses its use site, so a refactor cannot silently zero a layer.
bench-selftest:
	$(PYTHON) perfbench/run.py --self-test

# Serving smoke: boot the real service, run a scripted request session
# (check, campaign job to completion, results download, health), then
# SIGTERM it and assert a clean exit (benchmarks/serve_smoke.py).
serve-smoke:
	$(PYTHON) benchmarks/serve_smoke.py

# Run every example (docs/EXAMPLES.md shows expected output).
examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/crowd_campaign.py
	$(PYTHON) examples/systematic_crawl.py
	$(PYTHON) examples/currency_guard_demo.py
	$(PYTHON) examples/kindle_login_study.py
