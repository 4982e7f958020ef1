#!/usr/bin/env bash
# Crash-matrix driver: runs the deterministic crash-recovery suite at
# acceptance scale (1000-transaction seeded workload, every commit
# boundary plus intra-record cut points, injected-crash equivalence,
# checkpoint-wrap recovery, double-replay no-op, grouped-batch cuts,
# checkpoint isolation) against an existing build directory.
#
# Usage: scripts/crash_matrix.sh <build-dir> [txns] [seed]
#
# The per-boundary matrix is O(txns^2) in replayed frames, so the full
# 1k matrix is deliberately reserved for this gate; the ctest default
# (RLS_CRASH_TXNS unset = 120) keeps the everyday suite fast.
set -euo pipefail

cd "$(dirname "$0")/.."

dir=${1:?usage: scripts/crash_matrix.sh <build-dir> [txns] [seed]}
txns=${2:-1000}
seed=${3:-42}

test_bin="$dir/tests/crash_recovery_test"
wal_bin="$dir/tests/rdb_wal_test"
prop_bin="$dir/tests/rdb_property_test"
for bin in "$test_bin" "$wal_bin" "$prop_bin"; do
  if [ ! -x "$bin" ]; then
    echo "crash_matrix: missing $bin (build the tests first)" >&2
    exit 2
  fi
done

# One run covers both batch caps: every commit takes the WAL's single
# leader/batch path, and the grouped-batch cut test inside the suite
# cuts multi-frame batches.
echo "=== [crash] matrix: $txns txns, seed $seed ($test_bin)"
env RLS_CRASH_TXNS="$txns" RLS_CRASH_SEED="$seed" "$test_bin"

echo "=== [crash] pinned-seed storage-fault replay + group commit ($wal_bin)"
"$wal_bin" --gtest_filter='WalRecoveryTest.*:WalFaultTest.*:WalGroupCommitTest.*'

echo "=== [crash] recovery idempotence property ($prop_bin)"
"$prop_bin" --gtest_filter='*RecoveryIdempotenceProperty*'

echo "=== [crash] matrix passed"
