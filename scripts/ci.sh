#!/usr/bin/env bash
# One-stop CI entry point. scripts/verify.sh already chains the build,
# the tests, the smokes and goldens, the static quality gate
# (scripts/lint.sh) and an ungated benchmark pass, so CI runs it once.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==== ci: verify (build, tests, goldens, lint, ungated bench) ===="
./scripts/verify.sh

echo "ci: OK"
