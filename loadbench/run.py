#!/usr/bin/env python3
"""Build (if needed) and run the end-to-end load benchmark.

Run from the root of a checkout:

    python3 loadbench/run.py --list
    python3 loadbench/run.py --self-test --seed 7
    python3 loadbench/run.py --workload handle_hot --seed 1 --seconds 12 --trace 0

The library, lmds_serve and the loadbench program are compiled from this
checkout's sources into .bench_build/loadbench (Release, Ninja when present);
build output goes to stderr so the result stays the last line of stdout.
Traced runs write their spans under .bench_build/traces.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "loadbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "server", "lmds_serve.cpp")):
        sys.exit("loadbench: no src/ next to %s; run from a full checkout" % HERE)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True, stdout=sys.stderr)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("loadbench: build failed: %s" % e)
    os.makedirs(TRACES, exist_ok=True)
    binary = os.path.join(BUILD, "loadbench")
    sys.stdout.flush()
    # Replace this process, so the benchmark is the only process to stop.
    os.execv(binary, [binary, *sys.argv[1:], "--server-bin",
                      os.path.join(BUILD, "lmds_serve"), "--trace-dir", TRACES])


if __name__ == "__main__":
    main()
