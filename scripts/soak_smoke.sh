#!/usr/bin/env bash
# Soak determinism gate: run lmds_soak twice with identical seed/duration and
# require byte-identical JSON reports plus a clean exit (zero oracle
# violations, zero fuzz failures — lmds_soak exits non-zero on either).
#
# Usage: scripts/soak_smoke.sh BUILD_DIR [DURATION] [SEED]
#
# `--duration` is a deterministic work budget, not wall-clock, which is what
# makes the byte-compare meaningful: same seed, same requests, same report.
# CI runs this against the plain build and `lmds_soak --check` separately
# under the asan-ubsan preset (docs/SOAK.md). The reports go to a temporary
# directory, removed on success and kept (its path printed) on failure.

set -euo pipefail

BUILD_DIR=$(cd "$1" && pwd)
DURATION=${2:-4}
SEED=${3:-42}
WORK_DIR=$(mktemp -d)

finish() {
  if [ $? -eq 0 ]; then
    rm -rf "$WORK_DIR"
  else
    echo "soak_smoke: failed; work dir kept at $WORK_DIR" >&2
  fi
}
trap finish EXIT

"$BUILD_DIR/lmds_soak" --duration "$DURATION" --seed "$SEED" \
  --repro-dir "$WORK_DIR/repro-a" --report "$WORK_DIR/a.json"
"$BUILD_DIR/lmds_soak" --duration "$DURATION" --seed "$SEED" \
  --repro-dir "$WORK_DIR/repro-b" --report "$WORK_DIR/b.json"

if ! cmp -s "$WORK_DIR/a.json" "$WORK_DIR/b.json"; then
  echo "soak_smoke: reports differ between identical runs (determinism regression):" >&2
  diff "$WORK_DIR/a.json" "$WORK_DIR/b.json" >&2 || true
  exit 1
fi

echo "soak_smoke: OK ($BUILD_DIR, duration=$DURATION seed=$SEED, reports identical)"
