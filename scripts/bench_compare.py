#!/usr/bin/env python3
"""Bench trajectory gate: compare a bench JSONL snapshot to a pinned baseline.

Each input is the RLS_BENCH_JSON output of a bench binary — one JSON
object per line, one line per server ({"server", "role", "metrics"}, the
line the JSONL exporter writes), carrying every obs registry instrument.
Every figure below is read from those samples. The gate protects the
perf trajectory:

  * structural samples (lrc_logical_names, lrc_mappings) must match
    exactly — a drift means the bench is measuring a different workload;
  * hot-path latency histograms (--metrics, default the per-method RPC
    request latency, rpc_request_latency_us{method}) must not slip:
    current mean > baseline mean * (1 + tolerance) on any matched series
    fails. Series of other instruments in a baseline are not gated.
    Getting faster never fails the gate.

With --throughput the gate compares sum(rpc_requests_total) /
server_uptime_seconds instead of latency means: current throughput < baseline * (1 - tolerance)
fails. When a snapshot file carries several lines for the same server
(RLS_BENCH_JSON appends), the per-server MEDIAN throughput is compared —
callers run each variant several times back to back, and the median is
robust against the lucky-fast and unlucky-slow outliers that single-run
scheduler noise produces on a shared machine (where a best-of-N
comparison is biased toward whichever variant has the wider spread).

Usage:
  bench_compare.py BASELINE CURRENT [--tolerance 0.15] [--min-count 100]
                   [--throughput]
"""

import argparse
import json
import sys

HOT_PATH_METRICS = (
    "rpc_request_latency_us",
)

STRUCTURAL_SAMPLES = ("lrc_logical_names", "lrc_mappings")


def sample(obj, name, labels=""):
    """Value of the sample name{labels}; labels=None sums the family.
    None when the line has no such sample."""
    values = [m.get("value", m.get("count", 0)) for m in obj.get("metrics", [])
              if m.get("name") == name and (labels is None or m.get("labels", "") == labels)]
    if not values:
        return None
    return sum(values)


def throughput(obj):
    uptime = sample(obj, "server_uptime_seconds") or 0
    requests = sample(obj, "rpc_requests_total", labels=None) or 0
    return requests / uptime if uptime > 0 else 0


def median(values):
    ranked = sorted(values)
    mid = len(ranked) // 2
    if len(ranked) % 2:
        return ranked[mid]
    return (ranked[mid - 1] + ranked[mid]) / 2


def load(path):
    """Returns {server: [line objects, in file order]}."""
    servers = {}
    with open(path) as f:
        for line_no, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                sys.exit(f"{path}:{line_no}: malformed JSON line: {e}")
            servers.setdefault(obj.get("server", f"line{line_no}"), []).append(obj)
    return servers


def metric_key(metric):
    return (metric.get("name", ""), metric.get("labels", ""))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="allowed fractional latency slippage (default 0.15)")
    parser.add_argument("--min-count", type=int, default=100,
                        help="ignore histogram series with fewer samples")
    parser.add_argument("--metrics", nargs="*", default=list(HOT_PATH_METRICS),
                        help="histogram metric names to gate on")
    parser.add_argument("--throughput", action="store_true",
                        help="gate on sum(rpc_requests_total)/server_uptime_seconds instead "
                             "of latency means (median over each server's lines)")
    args = parser.parse_args()

    baseline = load(args.baseline)
    current = load(args.current)

    failures = []
    compared = 0
    for server, base_lines in sorted(baseline.items()):
        cur_lines = current.get(server)
        if cur_lines is None:
            failures.append(f"{server}: missing from current run")
            continue
        base_obj, cur_obj = base_lines[-1], cur_lines[-1]
        for name in STRUCTURAL_SAMPLES:
            base_value, cur_value = sample(base_obj, name), sample(cur_obj, name)
            if base_value != cur_value:
                failures.append(
                    f"{server}: {name} changed {base_value} -> {cur_value} "
                    f"(bench no longer measures the same workload)")
        if args.throughput:
            base_tput = median([throughput(o) for o in base_lines])
            cur_tput = median([throughput(o) for o in cur_lines])
            compared += 1
            if base_tput > 0 and cur_tput < base_tput * (1 - args.tolerance):
                failures.append(
                    f"{server}: median throughput dropped "
                    f"{base_tput:.0f} -> {cur_tput:.0f} req/s over "
                    f"{len(base_lines)}/{len(cur_lines)} runs "
                    f"({100 * (1 - cur_tput / base_tput):.1f}% down, "
                    f"allowed {100 * args.tolerance:.0f}%)")
            continue
        cur_metrics = {metric_key(m): m for m in cur_obj.get("metrics", [])}
        for base_metric in base_obj.get("metrics", []):
            name = base_metric.get("name", "")
            if name not in args.metrics or "mean_us" not in base_metric:
                continue
            if base_metric.get("count", 0) < args.min_count:
                continue
            cur_metric = cur_metrics.get(metric_key(base_metric))
            if cur_metric is None:
                failures.append(
                    f"{server}: {name}{{{base_metric.get('labels', '')}}} "
                    f"missing from current run")
                continue
            base_mean = float(base_metric["mean_us"])
            cur_mean = float(cur_metric.get("mean_us", 0))
            compared += 1
            if base_mean > 0 and cur_mean > base_mean * (1 + args.tolerance):
                failures.append(
                    f"{server}: {name}{{{base_metric.get('labels', '')}}} "
                    f"slipped {base_mean:.1f}us -> {cur_mean:.1f}us "
                    f"(+{100 * (cur_mean / base_mean - 1):.1f}%, "
                    f"allowed +{100 * args.tolerance:.0f}%)")

    if failures:
        print(f"bench gate: {len(failures)} failure(s) "
              f"({compared} series compared):", file=sys.stderr)
        for failure in failures:
            print(f"  FAIL {failure}", file=sys.stderr)
        return 1
    what = "server throughputs" if args.throughput else "hot-path series"
    print(f"bench gate: OK ({compared} {what} within "
          f"{100 * args.tolerance:.0f}% of baseline)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
