# Convenience targets mirroring what CI runs.
#
#   make lint      — custom simulation-correctness linter (shallow + deep) + ruff
#   make lint-deep — whole-program pass only (call graph + dataflow rules)
#   make test      — tier-1 test suite (includes the lint self-check)
#   make check     — both
#   make loc       — src/repro line count per package and in total

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: lint lint-deep lint-json lint-sarif test check loc \
	bench-parallel bench-obs obs-smoke bench-sim bench-sim-16k bench-lint \
	bench-whatif bench-check

lint:
	$(PYTHON) -m repro.cli lint src/repro
	$(PYTHON) -m repro.cli lint --deep src/repro
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests; \
	else \
		echo "ruff not installed; skipped generic lint (see pyproject.toml)"; \
	fi

# Whole-program flow analysis only (DET1xx/RACE0xx/INV1xx/UNIT1xx),
# checked against the committed lint-baseline.json.
lint-deep:
	$(PYTHON) -m repro.cli lint --deep src/repro

lint-json:
	$(PYTHON) -m repro.cli lint --format json src/repro

# SARIF for code-scanning upload; writes lint.sarif in the repo root.
lint-sarif:
	$(PYTHON) -m repro.cli lint --deep --format sarif --output lint.sarif src/repro

test:
	$(PYTHON) -m pytest -x -q

check: lint test

# Lines of *.py under src/repro, per package (subpackages included) and
# in total: the net src/ line count that ROADMAP.md tracks.
loc:
	@for init in src/repro/*/__init__.py; do \
		pkg=$${init%/__init__.py}; \
		printf '%-14s %6d\n' "$${pkg#src/repro/}/" \
			"$$(find $$pkg -name '*.py' -exec cat {} + | wc -l)"; \
	done
	@printf '%-14s %6d\n' "(top level)" "$$(cat src/repro/*.py | wc -l)"
	@printf '%-14s %6d\n' "total" \
		"$$(find src/repro -name '*.py' -exec cat {} + | wc -l)"

# Serial-vs-parallel campaign timing; writes benchmarks/output/BENCH_parallel.json
bench-parallel:
	$(PYTHON) benchmarks/bench_parallel.py --workers 4

# Telemetry overhead + hot-path profile; writes benchmarks/output/BENCH_obs.json
bench-obs:
	$(PYTHON) benchmarks/bench_obs.py

# Fast observability smoke: 20-job observed sim, asserts the metrics
# dumps repeat byte-identically and the Prometheus export parses.
obs-smoke:
	$(PYTHON) benchmarks/bench_obs.py --jobs 20 --nodes 48 --repeats 2

# End-to-end simulate() wall clock at paper scale vs the recorded
# pre-optimisation baseline; writes benchmarks/output/BENCH_sim.json
bench-sim:
	$(PYTHON) benchmarks/bench_sim.py

# Columnar-core scale point only: 16384-node dynamic run against the
# 1.25x pre-columnar budget; merges scale_16k into BENCH_sim.json and
# exits non-zero when over budget (CI uploads the JSON as an artifact).
bench-sim-16k:
	$(PYTHON) benchmarks/bench_sim.py --only-16k

# Shallow vs deep lint wall clock + parse-cache stats; writes
# benchmarks/output/BENCH_lint.json
bench-lint:
	$(PYTHON) benchmarks/bench_lint.py

# What-if forks vs fresh simulations (query latency, 16k-node COW
# efficiency); writes benchmarks/output/BENCH_whatif.json and exits
# non-zero when the acceptance thresholds (10x / <10%) are missed.
bench-whatif:
	$(PYTHON) benchmarks/bench_whatif.py

# Regression gate: each bench driver appends its headline time to
# benchmarks/output/BENCH_history.jsonl; fail if the latest run of any
# bench is >15% slower than the best of its recent prior runs.
bench-check:
	$(PYTHON) benchmarks/bench_check.py
