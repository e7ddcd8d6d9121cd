# Developer entry points.  Everything runs from the repo root with the
# src layout on PYTHONPATH; no install step required.

PY := PYTHONPATH=src python

.PHONY: test test-checked test-clique-index test-patterns bench-smoke bench bench-record ablation bench-serve trace-smoke chaos-smoke lint lint-deep typecheck

test:
	$(PY) -m pytest -x -q

# The full suite with the invariant sanitizer armed: every flow solve is
# audited for conservation/capacity/duality and every result density is
# recomputed from scratch (REPRO_CHECK=1; see repro/guard/sanitize.py).
test-checked:
	REPRO_CHECK=1 $(PY) -m pytest -x -q

# The clique-index property suite on its own (CI also runs it with
# REPRO_NO_NUMPY=1 to pin the pure-python kernel path explicitly).
test-clique-index:
	$(PY) -m pytest tests/test_clique_index.py -q

# The pattern suites on their own: the row enumerator, the PDS solvers
# and flow builders, the pattern cores (CI also runs them with
# REPRO_NO_NUMPY=1 to pin the pure-python builder path).
test-patterns:
	$(PY) -m pytest tests/test_patterns.py tests/test_pds.py tests/test_pattern_core.py -q

# One tiny bench per family (figure, table, ablation) at a reduced
# dataset scale, under a hard time cap -- perf regressions fail loudly
# without the cost of the full suite.
BENCH_SMOKE_FILES := \
	benchmarks/bench_fig8_exact.py \
	benchmarks/bench_fig9_flow_sizes.py \
	benchmarks/bench_table3_decomp_share.py \
	benchmarks/bench_ablation_flow_reuse.py

bench-smoke:
	timeout 900 env REPRO_BENCH_SCALE=0.1 PYTHONPATH=src \
		python -m pytest $(BENCH_SMOKE_FILES) -q --benchmark-disable

# Full benchmark suite (regenerates every table/figure artefact).
bench:
	$(PY) -m pytest benchmarks -q

# One perfbench run of workload W (seed 1, untraced), appended to the
# committed trajectory benchmarks/out/BENCH_$(W).json with the commit, a
# dirty flag, the environment fingerprint and the CPU count.
bench-record:
	python3 benchmarks/record.py $(W)

# Just the flow ablation: the breakpoint walk against the paper's binary
# search for Exact, and the clique-index kernels (rewrites the
# machine-readable perf summary benchmarks/out/BENCH_flow.json, which also
# records the accel backend tier and the per-tier flow-phase wall times;
# make bench-smoke runs the same bench at the smoke scale).
ablation:
	$(PY) -m pytest benchmarks/bench_ablation_flow_reuse.py -q

# Query-serving bench (repro.serve): cold exact solve vs warm snapshot
# vs restart-reload per Figure-8 cell, answers asserted bit-identical
# at zero flow solves, wall times written to the machine-readable
# benchmarks/out/BENCH_service.json.  The >= 10x warm-vs-cold claim is
# asserted whenever a cell's cold solve clears the timing-noise floor;
# otherwise the JSON records an explicit skip.
bench-serve:
	timeout 900 env REPRO_BENCH_SCALE=0.1 PYTHONPATH=src \
		python -m pytest benchmarks/bench_serve_cache.py -q --benchmark-disable

# Traced Exact/CoreExact workload streaming JSONL to benchmarks/out/,
# schema-validated and reconciled against the legacy stats (exits
# non-zero on any schema error or stats mismatch).
trace-smoke:
	$(PY) -m repro.obs.smoke benchmarks/out/trace_smoke.jsonl

# Budget-degradation / sanitizer smoke: checks that expired budgets
# degrade with a verifiable density bracket and that the sanitizer stays
# silent on healthy solves (repro/guard/chaos.py; exits non-zero on any
# violation).
chaos-smoke:
	$(PY) -m repro.guard.chaos

# Style/pyflakes/bugbear lint (CI runs it before the test matrix).
lint:
	python -m ruff check src tests benchmarks examples

# Project-specific invariant linter (repro.analysis): determinism
# hazards, obs/guard instrumentation coverage, env-read discipline.  No
# deps beyond the stdlib -- runs anywhere the package imports.
lint-deep:
	$(PY) -m repro.analysis src/repro

# Typing gate over the infrastructure layers (scope set in pyproject's
# [tool.mypy] files list: repro.obs, repro.guard, repro.analysis,
# repro.env).
typecheck:
	python -m mypy
