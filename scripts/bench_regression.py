#!/usr/bin/env python3
"""Compare two --json artifacts of one CI bench and fail on regression.

Usage: bench_regression.py PREVIOUS.json CURRENT.json [--max-drop 0.20]

Works for all five CI benches (bench_serve_v2, bench_patch_throughput,
bench_perf, bench_cluster, bench_batch_throughput), whose BENCH_*.json
artifacts bench/bench_common.hpp writes. The compared metric is the best
runs[].graphs_per_sec in the artifact, e.g. the best thread count of
bench_batch_throughput or the inline path of bench_serve_v2. CI runners are
noisy, so the gate is a relative drop (default 20%, the ROADMAP's threshold),
not an absolute number. A PREVIOUS artifact without runs[] (written before
its bench recorded them) skips the comparison. Exit codes: 0 ok / within
tolerance / skipped, 1 regression, 2 unusable input (missing file, malformed
JSON, no runs in CURRENT).
"""

import argparse
import json
import sys


def best_rate(path: str, missing_ok: bool = False):
    """Best graphs/sec in `path`; None when it has no runs and missing_ok."""
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, ValueError) as e:
        print(f"bench_regression: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    rates = [run["graphs_per_sec"] for run in data.get("runs", [])
             if isinstance(run.get("graphs_per_sec"), (int, float))]
    if not rates:
        if missing_ok:
            return None
        print(f"bench_regression: no graphs_per_sec runs in {path}", file=sys.stderr)
        sys.exit(2)
    return max(rates)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("previous")
    parser.add_argument("current")
    parser.add_argument("--max-drop", type=float, default=0.20,
                        help="maximum tolerated relative drop (0.20 = 20%%)")
    args = parser.parse_args()

    prev = best_rate(args.previous, missing_ok=True)
    curr = best_rate(args.current)
    if prev is None:
        print(f"bench_regression: {args.previous} has no runs to compare against; skipping")
        return 0
    change = (curr - prev) / prev
    print(f"bench_regression: previous best {prev:.1f} graphs/sec, "
          f"current best {curr:.1f} graphs/sec ({change:+.1%})")
    if curr < prev * (1.0 - args.max_drop):
        print(f"bench_regression: REGRESSION — throughput dropped more than "
              f"{args.max_drop:.0%}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
