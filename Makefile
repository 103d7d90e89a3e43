# Convenience targets (everything works with plain pytest too).

PY ?= python

.PHONY: install test test-slow lint typecheck sanitize-smoke \
	modelcheck-smoke modelcheck-sweep costcheck-smoke numcheck-smoke \
	bench bench-smoke \
	bench-incremental-smoke distsat-smoke satbench-smoke \
	distsat-gigapixel tables report fuzz examples all

install:
	pip install -e . --no-build-isolation

# Tier-1: the fast suite (slow-marked tests excluded via pyproject addopts)
# plus the benchmark and sanitizer smoke gates.
test:
	$(PY) -m pytest tests/
	$(MAKE) bench-smoke
	$(MAKE) bench-incremental-smoke
	$(MAKE) distsat-smoke
	$(MAKE) satbench-smoke
	$(MAKE) sanitize-smoke
	$(MAKE) modelcheck-smoke
	$(MAKE) costcheck-smoke
	$(MAKE) numcheck-smoke

# Tier-2: the @pytest.mark.slow suites (long fuzz sessions, report
# generation, heavy examples, exhaustive differential sweeps).
test-slow:
	$(PY) -m pytest tests/ -m slow --override-ini addopts=-q

lint:
	@$(PY) -m ruff --version >/dev/null 2>&1 || \
		{ echo "ruff is not installed (pip install ruff)"; exit 1; }
	$(PY) -m ruff check src/ tests/ benchmarks/ examples/
	$(MAKE) typecheck

typecheck:
	@$(PY) -m mypy --version >/dev/null 2>&1 || \
		{ echo "mypy is not installed (pip install mypy)"; exit 1; }
	$(PY) -m mypy src/repro/gpusim src/repro/analysis src/repro/backend

# Race/protocol sanitizer + static kernel lint over all 7 algorithms under
# relaxed consistency with the adversarial scheduler (also a CI job).
sanitize-smoke:
	PYTHONPATH=src $(PY) -m repro sanitize -n 64 --consistency relaxed \
		--policy lifo

# Exhaustive protocol model checking: all 7 algorithms on a 2x2 tile grid
# plus the planted-bug corpus, POR on (also a CI job; JSON is the artifact).
modelcheck-smoke:
	PYTHONPATH=src $(PY) -m repro modelcheck -t 2 --corpus \
		--json modelcheck.json

# Static memory-traffic verification: prove every Table I row from the
# kernel ASTs, cross-validate transaction predictions on the simulator,
# prove exact-int accumulators overflow-free, and reject the planted cost
# regressions (also a CI job; JSON is the artifact).
costcheck-smoke:
	PYTHONPATH=src $(PY) -m repro costcheck --json costcheck.json

# Static numerical-accuracy verification: prove closed-form rounding-error
# bounds for every algorithm x dtype from the kernel ASTs, validate them
# against measured errors on adversarial inputs up to n=4096, and reject
# the planted rounding-bug corpus (also a CI job; JSON is the artifact).
numcheck-smoke:
	PYTHONPATH=src $(PY) -m repro numcheck --json numcheck.json

# Larger grids for the slow tier: t=3 for every algorithm, and the two
# soft-sync algorithms at t=4 (SKSS-LB's 16-program pool-4 graph explodes,
# so its sweep stops at pool 3).
modelcheck-sweep:
	PYTHONPATH=src $(PY) -m repro modelcheck -t 3
	PYTHONPATH=src $(PY) -m repro modelcheck -t 4 -a 1R1W-SKSS
	PYTHONPATH=src $(PY) -m repro modelcheck -t 4 -a 1R1W-SKSS-LB \
		--pool 1 --pool 2 --pool 3

bench:
	$(PY) -m pytest benchmarks/ --benchmark-only

bench-smoke:
	PYTHONPATH=src $(PY) benchmarks/bench_host_engine.py --smoke

bench-incremental-smoke:
	PYTHONPATH=src $(PY) benchmarks/bench_incremental.py --smoke

# Distributed-executor gate: sharded runs bit-identical to the reference,
# an injected kill + a corrupted payload recovered with an exact attempt
# ledger (also a CI job; distsat_smoke.json is the artifact).
distsat-smoke:
	PYTHONPATH=src $(PY) benchmarks/bench_distsat.py --smoke

# Layered-benchmark gate: one-second traced runs of two satbench workloads
# (every layer probe installed) must end on a result line that is correct
# and has no failed operation.
satbench-smoke:
	@for w in small video; do \
		echo "satbench $$w"; \
		$(PY) satbench/run.py --workload $$w --seed 1 --seconds 1 \
			--trace 1 | tail -n 1 | $(PY) -c 'import json, sys; \
			r = json.loads(sys.stdin.read()); \
			print("correct:", r["correct"], "failed:", r["failed"]); \
			sys.exit(not (r["correct"] is True and r["failed"] == 0))' \
			|| exit 1; \
	done

# The 4-gigapixel demo (65536^2 uint8 on a memory-capped worker): slow tier.
distsat-gigapixel:
	PYTHONPATH=src $(PY) benchmarks/bench_distsat.py --gigapixel

tables:
	$(PY) -m repro table1 --measure
	$(PY) -m repro table3

report:
	$(PY) -m repro report

fuzz:
	$(PY) -m repro fuzz --runs 200

examples:
	for f in examples/*.py; do echo "== $$f"; $(PY) $$f > /dev/null || exit 1; done

all: install test bench examples
