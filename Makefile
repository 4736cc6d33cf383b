# Developer entry points.  `make smoke` is the pre-merge gate: the full
# static-analysis stack plus the driver shape tests.

PYTEST := PYTHONPATH=src python -m pytest

.PHONY: smoke lint lint-compile lint-repro lint-ruff typecheck \
	test claims bench bench-engine bench-section4 bench-user-plane bench-all \
	bench-e2e bench-e2e-test bench-e2e-digests \
	report trace-demo scenario-smoke scale-smoke planet-scale \
	sanitize-smoke analyze-smoke

# Aggregate static-analysis gate.  lint-ruff and typecheck no-op with a
# notice when ruff/mypy are not installed (offline containers); CI
# installs both, so they are enforced there.
lint: lint-compile lint-repro lint-ruff typecheck

lint-compile:
	python -m compileall -q src

lint-repro:
	PYTHONPATH=src python -m repro.lint src

lint-ruff:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	else \
		echo "lint-ruff: ruff not installed, skipping (enforced in CI)"; \
	fi

typecheck:
	@if command -v mypy >/dev/null 2>&1; then \
		mypy src/repro; \
	else \
		echo "typecheck: mypy not installed, skipping (enforced in CI)"; \
	fi

smoke: lint
	$(PYTEST) -q tests/test_section_drivers.py

test:
	$(PYTEST) -q tests/

# The paper's claims: each figure benchmark asserts its figure's
# qualitative result (orderings, trends, crossovers).  Timing is off;
# these run as plain tests.
claims:
	$(PYTEST) -q --benchmark-disable benchmarks/test_bench_section3.py \
		benchmarks/test_bench_section4.py benchmarks/test_bench_section5.py \
		benchmarks/test_bench_ablations.py benchmarks/test_bench_future_work.py

# Schedule sanitizer: for every default cell (method x infrastructure
# pairs and the HAT system), perturb same-instant NORMAL-priority
# tie-breaking under a dedicated seeded stream and assert
# metrics/counters/traces stay bit-identical to the FIFO baseline.  A
# failure means results depend on incidental event-queue order (see
# docs/static-analysis.md).
sanitize-smoke:
	PYTHONPATH=src python -m repro sanitize

# The scenario registry must enumerate and the paper-baseline scenario
# must run end to end (CI runs the same two commands as a gate).
scenario-smoke:
	PYTHONPATH=src python -m repro scenario run paper-baseline --scale small
	PYTHONPATH=src python -m repro scenario list --json

# Benchmark trajectory: each run appends a timestamped entry to the
# BENCH_engine.json / BENCH_section4.json histories at the repo root;
# check_bench gates the latest entry against the trailing median.  See
# docs/performance.md and
# docs/observability.md.
bench: bench-engine bench-section4 bench-user-plane
	python benchmarks/check_bench.py BENCH_engine.json BENCH_section4.json \
		BENCH_user_plane.json

bench-engine:
	$(PYTEST) benchmarks/test_bench_engine.py --benchmark-only \
		--benchmark-json=.bench_engine.snapshot.json
	python benchmarks/bench_history.py append BENCH_engine.json \
		.bench_engine.snapshot.json

bench-section4:
	$(PYTEST) benchmarks/test_bench_section4.py --benchmark-only \
		--benchmark-json=.bench_section4.snapshot.json
	python benchmarks/bench_history.py append BENCH_section4.json \
		.bench_section4.snapshot.json

bench-user-plane:
	$(PYTEST) benchmarks/test_bench_user_plane.py --benchmark-only \
		--benchmark-json=.bench_user_plane.snapshot.json
	python benchmarks/bench_history.py append BENCH_user_plane.json \
		.bench_user_plane.snapshot.json

bench-all:
	$(PYTEST) benchmarks/ --benchmark-only

# The repo benchmark (BENCHMARK.json): every workload, 3 untraced runs
# plus a traced one each, printing medians, quartiles and the per-layer
# table (see benchmarks/e2e/README.md).
bench-e2e:
	python3 benchmarks/e2e/run.py --runs 3 --trace 1

# The benchmark harness's own tests: smoke-size workloads, the digest
# gate, and the traced per-layer run.
bench-e2e-test:
	$(PYTEST) benchmarks/e2e

# Full-size output digests: each seed's run exits non-zero when any
# digest pinned in benchmarks/e2e/expected.json moved (~30 s).
bench-e2e-digests:
	@for seed in 0 1 2; do \
		python3 benchmarks/e2e/run.py --runs 1 --seed $$seed || exit 1; \
	done

# Fig. 20x at CI scale: 10k servers x 100k users through the sharded
# sweep path, with wall-clock and peak-RSS budgets asserted off the
# telemetry rollup (same job as CI's scale-smoke).  Sampled tracing is
# ON (--trace-dir: 0.1% rate, rotating JSONL sinks under
# .scale-trace/) so the budgets also prove tracing fits at planet
# scale; the sweep writes live progress to .scale-runs.progress.json,
# tailable from another terminal with
# `python -m repro watch --registry .scale-runs.json`.
scale-smoke:
	PYTHONPATH=src python -m repro sweep --methods ttl --scale planet \
		--servers 10000 --users-per-server 10 --user-shards 4 \
		--workers 4 --registry .scale-runs.json \
		--trace-dir .scale-trace --sample-rate 0.001 --budget 128
	python benchmarks/check_scale.py .scale-runs.telemetry.json \
		--max-wall-s 420 --max-rss-kb 4000000

# Opt-in planet-scale run: 100k servers x 1M users (aggregate metrics,
# 8 user shards).  Takes minutes and a few GB of RAM; not a CI target.
planet-scale:
	PYTHONPATH=src python -m repro sweep --methods ttl --scale planet \
		--servers 100000 --users-per-server 10 --user-shards 8 \
		--workers 8 --registry .planet-runs.json

# Cross-run analysis gate: `repro analyze` over the checked-in
# BENCH_*.json trajectories.  Fails hard (exit 2) on malformed history
# and renders the self-contained HTML report CI uploads as an artifact
# (see docs/analysis.md).
analyze-smoke:
	PYTHONPATH=src python -m repro analyze BENCH_engine.json \
		BENCH_section4.json BENCH_user_plane.json \
		--html .analysis-report.html
	@test -s .analysis-report.html

report:
	PYTHONPATH=src python -m repro report --scale medium

# One traced smoke deployment: poll rounds as JSONL plus the per-layer
# cause-attribution table (stderr).
trace-demo:
	PYTHONPATH=src python -m repro trace --method ttl --servers 8 \
		--users-per-server 1 --updates 12 --duration 400 \
		--kind poll_round msg_drop node_down node_up --attribution
