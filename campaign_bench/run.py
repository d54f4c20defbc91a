#!/usr/bin/env python3
"""Builds the campaign benchmark from the repository sources and runs it.

    python3 campaign_bench/run.py --workload isp_serial --seed 1 --seconds 55 --trace 0

Run from the repository root. The build goes to .bench_build/campaign_bench
(build output on stderr); the benchmark's result is the last line of stdout.
See README.md in this directory for workloads and metrics.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(os.path.dirname(HERE), ".bench_build", "campaign_bench")


def main():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "campaign_bench", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print("campaign_bench: build failed", file=sys.stderr)
            return 1
    binary = os.path.join(BUILD, "campaign_bench")
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
