#!/usr/bin/env python3
r"""End-to-end benchmark of core::BuildingBlock on the paper's three queries.

    python3 blockbench/run.py --workload s2s_fleet --seed 1 --seconds 10 \
        --trace 0

Run from the repository root. The first run configures and builds the jarvis
library and the benchmark binary (CMake, Release) under .bench_build/; later
runs rebuild incrementally. Build output goes to stderr. The benchmark's
report goes to stdout, and its last line is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.

Workloads (all closed loop: epoch e+1 starts when RunEpoch(e) returns; event
time is simulated, 1 s epochs and 10 s tumbling windows):
  s2s_fleet  S2SProbe, 1,024 sources x 32 probe pairs, ExecPool path on 2
             workers, budget never binds: per-source fixed cost.
  t2t_split  T2TProbe, 8 sources x 4,000 pairs, ExecPool path on 2 workers,
             ~2x CPU budget with a scripted budget step: data-level
             partitioning is live.
  log_ckpt   LogAnalytics, 4 sources x 500 lines/s, fault-tolerant path on
             2 workers, a checkpoint every epoch, LZ4, a scripted crash every
             3 windows; the budget never binds (a binding one splits some
             keys into two rows, a known source-executor defect that the
             traced mode counts as source.split_keys).

Why each metric exists, why latency is split by epoch kind with no p95, and
the host-noise numbers the bounds come from: see the header of main.cc.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "blockbench")
BUILD = os.path.join(ROOT, ".bench_build", "blockbench")


def build():
    if not os.path.exists(os.path.join(BUILD, "build.ninja")) and not \
            os.path.exists(os.path.join(BUILD, "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", SOURCE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    compile_ = ["cmake", "--build", BUILD, "--target", "blockbench", "-j", "4"]
    return subprocess.run(compile_, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["s2s_fleet", "t2t_split", "log_ckpt"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not build():
        print("build failed", file=sys.stderr)
        return 1
    command = [os.path.join(BUILD, "blockbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", BUILD]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
