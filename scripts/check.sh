#!/usr/bin/env bash
# Sanitizer gate: builds and runs the test suite plain, under TSan, and
# under ASan+UBSan, so races like the old HashIndex probe-counter one
# can't land silently. The plain and TSan builds also treat warnings as
# errors (RLS_WERROR); the ASan+UBSan build does not, because GCC 12
# reports -Wmaybe-uninitialized inside libstdc++'s <variant> and <regex>
# under that instrumentation.
#
# Usage: scripts/check.sh [plain|thread|address,undefined|trace|bench|crash]...
#   (no arguments = the three sanitizer configurations + trace)
#
# The opt-in `crash` config is the crash-safety gate: it builds the
# tests under ASan+UBSan and runs the full crash matrix
# (scripts/crash_matrix.sh) — a 1000-transaction seeded workload cut at
# every commit boundary and at intra-record offsets, recovered and
# compared against the committed prefix — plus the pinned-seed
# storage-fault WAL tests and the recovery-idempotence property. The
# matrix runs once: the WAL has a single commit path (a batch cap of
# one is the per-commit flush), and cuts inside multi-frame batches are
# covered by the grouped-batch cut tests in the same binaries.
#
# The `trace` config is the tracing smoke gate: it runs the fig06 bench
# with the flight recorder on (RLS_TRACE_JSON), validates the exported
# Chrome trace-event JSON (schema + per-request stage coverage, via
# scripts/trace_summarize.py --validate), and compares the recorder-on
# run against a recorder-off run of the same bench so enabling tracing
# can never cost more than 5% on the hot path: throughput is each
# server's sum of rpc_requests_total over server_uptime_seconds, read
# from the registry samples of its RLS_BENCH_JSON line. Both runs happen
# on this machine back to back, so the comparison is baseline-free.
#
# The extra opt-in `bench` config is the perf-trajectory gate: it runs
# the fig04/fig06/fig10/fig11 hot-path benches under a pinned environment and
# compares their JSONL snapshots against the baselines pinned in
# bench/baselines/ (scripts/bench_compare.py; >15% hot-path latency
# slippage fails, and so does any change of the lrc_logical_names or
# lrc_mappings samples). It is opt-in rather than default because absolute
# latencies only compare meaningfully on the machine that produced the
# baselines. Refresh baselines after an intentional perf change with:
#   scripts/check.sh bench-rebaseline
set -euo pipefail

cd "$(dirname "$0")/.."

# Pinned bench-gate environment: small scale + one trial keeps the gate
# fast; any change here invalidates the pinned baselines.
BENCH_GATE_ENV=(RLS_BENCH_SCALE=0.02 RLS_BENCH_TRIALS=1 RLS_FLUSH_PENALTY_US=8000)
BENCH_GATE_BENCHES=(bench_fig04_lrc_add_flush bench_fig06_lrc_ops_multiclient
                    bench_fig10_rli_query_bloom bench_fig11_bulk_ops)

run_bench_gate() {  # $1 = output mode: "compare" or "rebaseline"
  local dir=build-check
  echo "=== [bench] configure + build ($dir)"
  cmake -B "$dir" -S . -DRLS_SANITIZE= >/dev/null
  cmake --build "$dir" -j"$(nproc)" --target "${BENCH_GATE_BENCHES[@]}"
  mkdir -p bench/baselines
  local bench fig json
  for bench in "${BENCH_GATE_BENCHES[@]}"; do
    fig=$(echo "$bench" | sed -E 's/^bench_(fig[0-9]+).*/\1/')
    json="$dir/BENCH_${fig}.json"
    rm -f "$json"
    echo "=== [bench] $bench"
    env "${BENCH_GATE_ENV[@]}" RLS_BENCH_JSON="$json" "$dir/bench/$bench" >/dev/null
    if [ "$bench" = bench_fig04_lrc_add_flush ]; then
      # fig04 runs two servers: the per-commit flush (WAL batch cap one;
      # gated against the long-standing baseline, which must NOT move)
      # and the group-commit server (its own baseline). Split the
      # snapshot so each series is pinned separately.
      grep '"server": "lrc:fig4-group"' "$json" > "$dir/BENCH_fig04_group.json"
      grep -v '"server": "lrc:fig4-group"' "$json" > "$json.tmp" && \
        mv "$json.tmp" "$json"
      if [ "$1" = rebaseline ]; then
        cp "$dir/BENCH_fig04_group.json" bench/baselines/BENCH_fig04_group.json
        echo "=== [bench] pinned bench/baselines/BENCH_fig04_group.json"
      else
        # Grouped durable latencies are mostly intentional parking
        # (batch linger + shared flush waits, incl. the 80-committer
        # acceptance phase); the per-run batch mix swings ~20% at
        # single-trial scale, so this series gets the wide band like
        # the TCP one.
        python3 scripts/bench_compare.py bench/baselines/BENCH_fig04_group.json \
          "$dir/BENCH_fig04_group.json" --tolerance 0.30
      fi
    fi
    if [ "$bench" = bench_fig10_rli_query_bloom ]; then
      # fig10's zero-link sweep runs on its own RLI, unthrottled: its
      # rates are the machine's ceiling, not a pinned series, so only the
      # modeled-LAN server's line is compared and pinned.
      grep -v '"server": "rli:fig10-ceiling"' "$json" > "$json.tmp" && \
        mv "$json.tmp" "$json"
    fi
    if [ "$1" = rebaseline ]; then
      cp "$json" "bench/baselines/BENCH_${fig}.json"
      echo "=== [bench] pinned bench/baselines/BENCH_${fig}.json"
    else
      python3 scripts/bench_compare.py "bench/baselines/BENCH_${fig}.json" \
        "$json" --tolerance 0.15
    fi
  done
  # The socket hot path: the same fig06 binary over the TCP transport
  # (RLS_TRANSPORT selects the fabric at run time), so the bench
  # trajectory tracks the socket/frame-codec stack alongside the
  # in-process numbers.
  json="$dir/BENCH_fig06_tcp.json"
  rm -f "$json"
  echo "=== [bench] bench_fig06_lrc_ops_multiclient (tcp://127.0.0.1)"
  env "${BENCH_GATE_ENV[@]}" RLS_TRANSPORT=tcp://127.0.0.1 \
    RLS_BENCH_JSON="$json" \
    "$dir/bench/bench_fig06_lrc_ops_multiclient" >/dev/null
  if [ "$1" = rebaseline ]; then
    cp "$json" bench/baselines/BENCH_fig06_tcp.json
    echo "=== [bench] pinned bench/baselines/BENCH_fig06_tcp.json"
  else
    # Real-socket latencies carry syscall/scheduler jitter the in-process
    # runs don't (~±20% run-to-run at this single-trial gate scale), so
    # the TCP series gets a wider band than the 15% in-process gate.
    python3 scripts/bench_compare.py bench/baselines/BENCH_fig06_tcp.json \
      "$json" --tolerance 0.30
  fi
}

run_crash_gate() {
  local dir=build-check-asan
  echo "=== [crash] configure + build ($dir, ASan+UBSan)"
  cmake -B "$dir" -S . -DRLS_SANITIZE=address,undefined >/dev/null
  cmake --build "$dir" -j"$(nproc)" --target crash_recovery_test rdb_wal_test \
    rdb_property_test
  scripts/crash_matrix.sh "$dir" "${RLS_CRASH_TXNS:-1000}" \
    "${RLS_CRASH_SEED:-42}"
}

run_trace_gate() {
  local dir=build-check
  echo "=== [trace] configure + build ($dir)"
  cmake -B "$dir" -S . -DRLS_SANITIZE= >/dev/null
  cmake --build "$dir" -j"$(nproc)" --target bench_fig06_lrc_ops_multiclient
  local off="$dir/TRACE_fig06_off.json" on="$dir/TRACE_fig06_on.json"
  local trace="$dir/trace_fig06.json"
  rm -f "$off" "$on" "$trace"
  # Interleaved A/B, five runs per variant: RLS_BENCH_JSON appends one
  # registry line per server and run, and the --throughput compare takes
  # each variant's median run, so the
  # scheduler noise of a single run at gate scale (easily 10-20% either
  # way) cannot decide the verdict.
  local round
  for round in 1 2 3 4 5; do
    echo "=== [trace] fig06 round $round, recorder off"
    env "${BENCH_GATE_ENV[@]}" RLS_BENCH_JSON="$off" \
      "$dir/bench/bench_fig06_lrc_ops_multiclient" >/dev/null
    echo "=== [trace] fig06 round $round, recorder on (RLS_TRACE_JSON)"
    env "${BENCH_GATE_ENV[@]}" RLS_BENCH_JSON="$on" RLS_TRACE_JSON="$trace" \
      "$dir/bench/bench_fig06_lrc_ops_multiclient" >/dev/null
  done
  echo "=== [trace] Chrome trace-event schema + stage coverage"
  python3 scripts/trace_summarize.py "$trace" --validate
  echo "=== [trace] recorder overhead gate (median-of-5 throughput, -5% max)"
  python3 scripts/bench_compare.py "$off" "$on" --throughput --tolerance 0.05
}

configs=("$@")
if [ ${#configs[@]} -eq 0 ]; then
  configs=(plain thread "address,undefined" trace)
fi

for config in "${configs[@]}"; do
  case "$config" in
    plain)
      dir=build-check
      flags=(-DRLS_SANITIZE= -DRLS_WERROR=ON)
      ;;
    thread)
      dir=build-check-tsan
      flags=(-DRLS_SANITIZE=thread -DRLS_WERROR=ON)
      ;;
    address,undefined)
      dir=build-check-asan
      flags=(-DRLS_SANITIZE=address,undefined)
      ;;
    trace)
      run_trace_gate
      continue
      ;;
    bench)
      run_bench_gate compare
      continue
      ;;
    bench-rebaseline)
      run_bench_gate rebaseline
      continue
      ;;
    crash)
      run_crash_gate
      continue
      ;;
    *)
      echo "unknown config '$config' (want plain, thread, address,undefined, trace, bench or crash)" >&2
      exit 2
      ;;
  esac

  echo "=== [$config] configure + build ($dir)"
  cmake -B "$dir" -S . "${flags[@]}" >/dev/null
  cmake --build "$dir" -j"$(nproc)"
  echo "=== [$config] ctest"
  ctest --test-dir "$dir" --output-on-failure -j"$(nproc)"
  if [ "$config" = thread ]; then
    # The TCP connections (a reader thread and any number of writers per
    # socket, with the reader's reply batching), the in-process direct
    # delivery (replies and close notices run the client's callbacks on
    # the server's threads) and the async client multiplexer over both
    # are the raciest code in the tree; make their TSan pass an explicit
    # gate. The /InProc cases of the async-client, overload and chaos
    # suites race server replies against the client's lifecycle, and
    # the /Tcp cases race them against that batching. The ExecutionSlot
    # cases are the execution slots' checker: readers of many
    # connections take, wait for, hand over and give back slots while
    # Stop() ends the waits. The Clock cases and the soft-state history
    # checker's /..._Tcp and /..._InProc cases race the periodic loops'
    # mutexes against ManualClock's waiter bookkeeping. The RliBloomStore
    # cases race the RLI's batched filter probe against filter
    # replacement and expiry. (These also ran in the full suite above —
    # this re-run is the named gate so a filter typo can't silently drop
    # them.)
    echo "=== [$config] transport + execution slot + clock + Bloom store gate (tcp_transport_test, Tcp/InProc cases, ExecutionSlot, Clock and RliBloomStore tests)"
    ctest --test-dir "$dir" --output-on-failure -R 'Tcp|InProc|Clock|RliBloomStore|ExecutionSlot'
  fi
done

echo "=== all configurations passed"
