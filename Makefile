# Convenience targets mirroring the CI gates. `make lint` runs every
# static analyser (ruff + the repo's own repro-audit, RL and RA rules);
# `make test` runs the tier-1 suite. PYTHON can be overridden, e.g.
# `make lint PYTHON=python3.12`.

PYTHON ?= python

.PHONY: lint ruff repro-audit test

lint: ruff repro-audit

ruff:
	@if command -v ruff >/dev/null 2>&1; then \
	    ruff check src tools tests; \
	else \
	    echo "ruff not installed; skipping (the CI ruff job still gates)"; \
	fi

repro-audit:
	$(PYTHON) -m tools.repro_audit src tools benchmarks

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q
