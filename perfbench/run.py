#!/usr/bin/env python3
"""Run a perfbench workload from the root of a ddm checkout.

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 30 --trace 0

Builds perfbench/ddmbench.exe with dune (the first run compiles the
repository from source), runs it, and passes its output through: the last
line of standard output is the JSON result.  `--workload all` runs every
workload BENCHMARK.json gates, in turn, each printing its own report and
result line.  Exits non-zero without a result when it is not run from a
checkout root, or when the build or a run fails.  See perfbench/README.md
for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["serve-hot", "serve-cold-mix"]
# serve-hot's requests are all answered on the Httpd domain, so its time is
# the client's and Httpd's CPU per op plus a cross-CPU wakeup per message
# when the two run on different CPUs.  Held to one CPU (and so, as the client
# keeps at most nproc in flight, one request in flight), its runs on a shared
# 2-vCPU host spread less than on two.  serve-cold-mix needs both CPUs for
# its two solver workers.
ONE_CPU = {"serve-hot"}
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "ddmbench.exe")


def gated_workloads():
    with open("BENCHMARK.json") as f:
        return [w["name"] for w in json.load(f)["workloads"]]


def hold_to_one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main():
    ap = argparse.ArgumentParser(description="ddm end-to-end benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir(os.path.join("lib", "serve"))):
        print("perfbench: run this from the root of a ddm checkout", file=sys.stderr)
        return 2
    dune = shutil.which("dune")
    if dune is None:
        print("perfbench: dune is not on PATH", file=sys.stderr)
        return 2

    try:
        subprocess.run([dune, "build", "--root", ".", "./perfbench/ddmbench.exe"],
                       check=True, timeout=BUILD_TIMEOUT_S, stdout=sys.stderr)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    for workload in gated_workloads() if a.workload == "all" else [a.workload]:
        cmd = [EXE, "--workload", workload, "--seed", str(a.seed),
               "--seconds", repr(a.seconds), "--trace", str(a.trace)]
        try:
            pre = hold_to_one_cpu if workload in ONE_CPU else None
            code = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, preexec_fn=pre).returncode
        except subprocess.TimeoutExpired:
            print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s and was stopped",
                  file=sys.stderr)
            return 1
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
