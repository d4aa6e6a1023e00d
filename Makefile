# Convenience targets for the Methuselah Flash reproduction.

.PHONY: install test ci bench bench-smoke bench-full perfbench-test kernel-equivalence experiments experiments-full examples clean

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

# What .github/workflows/ci.yml runs: the tier-1 suite plus lint.
# ruff is optional locally; CI always installs it.
ci:
	PYTHONPATH=src python -m pytest -x -q
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests examples benchmarks; \
	else \
		echo "ruff not installed; skipping lint (CI runs it)"; \
	fi

bench:
	pytest benchmarks/ --benchmark-only

# Fast coding-path throughput check (batched vs scalar engine, Viterbi
# kernel, sweep fabric, disabled-telemetry overhead); writes
# BENCH_coding.json at the repo root.  CI runs this and uploads the JSON.
bench-smoke:
	PYTHONPATH=src python -m pytest benchmarks/test_bench_batch.py benchmarks/test_bench_viterbi.py benchmarks/test_bench_sweep.py benchmarks/test_bench_obs.py benchmarks/test_bench_server.py -q

# Unit tests of the repository benchmark harness (perfbench/); tier-1
# testpaths cover tests/ only.
perfbench-test:
	PYTHONPATH=src python -m pytest perfbench/tests -q

# Bit-identity of every ACS kernel backend against the reference kernel.
# Runs once with the backend forced to numpy and once under the default
# (auto) selection; with numba installed, auto covers the jitted path.
kernel-equivalence:
	REPRO_VITERBI_BACKEND=numpy PYTHONPATH=src python -m pytest tests/coding/test_viterbi_kernel.py -q
	PYTHONPATH=src python -m pytest tests/coding/test_viterbi_kernel.py -q

# Paper-fidelity benchmark run (4 KB pages, several minutes).
bench-full:
	REPRO_PAGE_BYTES=4096 REPRO_CYCLES=3 pytest benchmarks/ --benchmark-only

experiments:
	python -m repro.experiments all

experiments-full:
	python -m repro.experiments all --page-bytes 4096 --cycles 3

examples:
	for script in examples/*.py; do echo "== $$script"; python $$script; done

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
