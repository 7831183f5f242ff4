#!/usr/bin/env python3
"""Harness and artifact check for one CI bench (registered with ctest).

Usage: bench_artifact.py REGRESSION_SCRIPT ARTIFACT BENCH [ARGS...]

Runs BENCH ARGS --json ARTIFACT without --check, so timing cannot fail it,
then feeds ARTIFACT to bench_regression.py as both sides, which exits 0 only
when runs[].graphs_per_sec holds numbers. Also checks the harness's exit
codes: 2 for an undeclared flag, non-zero when the artifact cannot be
written (--json /dev/full, where that device exists).
"""

import os
import subprocess
import sys


def main() -> int:
    regression, artifact, bench, *args = sys.argv[1:]
    failures = []
    rc = subprocess.run([bench, *args, "--json", artifact]).returncode
    if rc != 0:
        failures.append(f"toy run exited {rc}")
    else:
        rc = subprocess.run([sys.executable, regression, artifact, artifact]).returncode
        if rc != 0:
            failures.append(f"bench_regression.py exited {rc} on {artifact}")
    rc = subprocess.run([bench, "--no-such-flag"]).returncode
    if rc != 2:
        failures.append(f"an undeclared flag exited {rc}, not 2")
    if os.path.exists("/dev/full"):
        rc = subprocess.run([bench, *args, "--json", "/dev/full"]).returncode
        if rc == 0:
            failures.append("--json /dev/full exited 0")
    for failure in failures:
        print(f"{bench}: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
