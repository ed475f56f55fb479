#!/bin/sh
# Tier-1 verification: the full test suite (which runs every digest gate
# in scripts/gates.py through tests/test_gates.py) plus the observability
# coverage gate.  Run from the repository root:
#
#     sh scripts/verify.sh
#
# Exits non-zero on the first failing step and leaves the tree unchanged.

set -e

cd "$(dirname "$0")/.."

echo "==> tier-1 test suite (including the digest gates)"
PYTHONPATH=src python -m pytest -q

echo "==> observability coverage floor"
PYTHONPATH=src python scripts/check_obs_coverage.py --floor 80

echo "==> verify: OK"
