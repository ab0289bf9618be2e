# GossipTrust reproduction — common workflows.

PYTHON ?= python

.PHONY: install test lint analyze typecheck ci bench bench-smoke bench-large bench-xlarge service-smoke chaos-smoke sweep examples experiments docs clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# Lint with ruff when available; skip (successfully) when it is not
# installed so offline environments can still run `make ci`.
lint:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests benchmarks examples tools; \
	else \
		echo "ruff not installed; skipping lint (CI runs it)"; \
	fi

# Project-specific invariant lint (the 8-rule catalog GT001-GT009,
# GT006 retired, including the interprocedural flow rules);
# stdlib-only, so it always runs — see
# tools/analyze.py and src/repro/analysis/.
analyze:
	PYTHONPATH=src $(PYTHON) tools/analyze.py src tests examples tools benchmarks

# Strict typing gate over the algorithmic core (see [tool.mypy] in
# pyproject.toml).  Gated like lint: skip cleanly when mypy is missing.
typecheck:
	@if $(PYTHON) -m mypy --version >/dev/null 2>&1; then \
		$(PYTHON) -m mypy; \
	else \
		echo "mypy not installed; skipping typecheck (CI runs it)"; \
	fi

# What CI runs: the tier-1 suite plus the three static gates.
ci: test analyze lint typecheck

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Quick engine-comparison sweep (what CI's bench-smoke job runs).  Writes
# to a scratch path so the tracked full-mode BENCH_engines.json — regenerate
# that one with `PYTHONPATH=src python tools/bench_runner.py` — stays intact.
bench-smoke:
	PYTHONPATH=src $(PYTHON) tools/bench_runner.py --quick --output BENCH_engines.quick.json

# Large-n sparse-kernel tier only (n=10^4 in quick mode): one converged
# probe cycle per dtype with per-point peak-RSS metering.  Exits
# non-zero when a wall-time or RSS budget is blown, so it doubles as a
# memory-regression gate (full tier incl. n=10^5: drop --quick).
bench-large:
	PYTHONPATH=src $(PYTHON) tools/bench_runner.py --quick --large-only --output BENCH_large.quick.json

# Opt-in n=10^6 point on top of the full large-n tier: streaming matrix
# construction (~2*10^7 edges) plus one converged sparse-kernel
# probe cycle per dtype, gated on 3 GiB (float64) / 2 GiB (float32)
# peak-RSS budgets.  Minutes of single-core SpGEMM — never part of
# `make ci`; run it to refresh the recorded trajectory point.
bench-xlarge:
	PYTHONPATH=src $(PYTHON) tools/bench_runner.py --large-only --xlarge --output BENCH_xlarge.json

# Long-lived service soak: ingest -> incremental aggregation -> Bloom
# serving, with the runtime invariant sanitizer armed so every
# row-stochasticity and mass check fires during the soak (see
# src/repro/service/ and the service-smoke CI job).
service-smoke:
	REPRO_SANITIZE=1 PYTHONPATH=src $(PYTHON) -m repro.cli serve-sim \
		--n 200 --epochs 3 --events 40 --queries 300 --seed 0
	REPRO_SANITIZE=1 PYTHONPATH=src $(PYTHON) -m pytest tests/test_service.py -q

# Chaos soak: the churn-resilience sweep (scripted crash bursts) across
# both DES engines and all four partner strategies with every runtime
# invariant check armed, then the robustness test files under the same
# posture (see src/repro/network/faultplan.py and gossip/partnering.py).
chaos-smoke:
	REPRO_SANITIZE=1 PYTHONPATH=src $(PYTHON) -m repro.cli run resilience \
		--quick --set n=48 --set strategies=global,neighbors,hyparview,brahms \
		--set engines=message,async
	REPRO_SANITIZE=1 PYTHONPATH=src $(PYTHON) -m pytest -q \
		tests/test_gossip_partnering.py tests/test_network_reliability.py \
		tests/test_network_faultplan.py tests/test_experiments_resilience.py

# Demo of the parallel sweep runner: a quick experiment fanned over 2
# worker processes (results are identical to --workers 1, only faster
# on multi-core boxes; see src/repro/experiments/runner.py).
sweep:
	PYTHONPATH=src $(PYTHON) -m repro.cli run fig3 --quick --workers 2

examples:
	@for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f || exit 1; done

# Regenerate every paper table/figure at smoke scale (fast sanity pass).
experiments:
	$(PYTHON) -m repro.cli all --quick

docs:
	$(PYTHON) tools/gen_api_doc.py

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
