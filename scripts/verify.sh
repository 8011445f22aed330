#!/usr/bin/env bash
# Repo verification: the determinism lint (plus ruff/mypy when they are
# installed -- the CI lint cell always runs them), tier-1 tests (every
# suite under tests/, including the differential, chaos, service and
# prescreen suites, each run once), a validate-mode mini-sweep, and a
# smoke run of the speed benchmark (which asserts the optimised engine
# is bit-identical to the reference paths).  When pytest-cov is
# available (CI installs it) the tier-1 run additionally enforces the
# line-coverage floor over the fault-simulation and netlist packages.
# Used by CI and by hand before merging.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== determinism lint (tools/lint/repro_lint.py) =="
python tools/lint/repro_lint.py

if command -v ruff >/dev/null 2>&1; then
  echo "== ruff =="
  ruff check src benchmarks tools
else
  echo "(ruff not installed; skipping -- the CI lint cell runs it)"
fi

if command -v mypy >/dev/null 2>&1; then
  echo "== mypy (gradual; analysis/netlist/fsm strict) =="
  mypy src/repro
else
  echo "(mypy not installed; skipping -- the CI lint cell runs it)"
fi

echo "== tier-1 tests =="
if python -c "import pytest_cov" >/dev/null 2>&1; then
  python -m pytest -x -q --cov=repro.faults --cov=repro.netlist \
    --cov-report=term --cov-fail-under=85
else
  echo "(pytest-cov not installed; running without the coverage floor)"
  python -m pytest -x -q
fi

echo "== prescreen soundness (validate-mode mini-sweep: engines vs the untestability prover) =="
PRESCREEN_TMP="$(mktemp -d)"
python -m repro.cli sweep --out "$PRESCREEN_TMP/validate" \
  --families table1 --limit 4 --prescreen validate --no-timings --quiet
python -m repro.cli sweep --verify "$PRESCREEN_TMP/validate"
rm -rf "$PRESCREEN_TMP"

echo "== speed benchmark (smoke; prints speedup vs committed baseline) =="
python benchmarks/bench_speed.py --smoke
