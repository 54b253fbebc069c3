#!/usr/bin/env python3
"""Build and run the virtsim benchmark (perfbench).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Workloads: paper_tables, fleet_closed, fleet_observed, fleet_lanes.

The first call configures and builds perfbench (and the virtsim library
from ../src) in .bench_build/perfbench as an optimised build; later
calls rebuild only what changed. perfbench itself drops inherited
VIRTSIM_* variables before it sets its own.

setup_s is the median over five fresh processes of the time from
process start to the end of the warm-up op, scaled to a nominal host by
the reference kernel: the measured run itself and four set-up-only runs
before it. Every other metric comes from the
measured run, whose last stdout line is the JSON result this script
prints last.

The default seed is 42; seed 7 is the second seed for checking a claimed
gain on inputs not used while the change was written.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "perfbench-out"
BINARY = BUILD / "perfbench"

SETUP_ONLY_RUNS = 4
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    cmd = ["cmake", "-S", str(SOURCE), "-B", str(BUILD),
           "-DCMAKE_BUILD_TYPE=Release"]
    if not (BUILD / "CMakeCache.txt").exists() and shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, check=True, stdout=sys.stderr,
                   timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "perfbench",
                    "-j", jobs],
                   check=True, stdout=sys.stderr,
                   timeout=BUILD_TIMEOUT_S)


def run_binary(args):
    """Run perfbench; return (stdout lines, parsed last-line JSON)."""
    proc = subprocess.run([str(BINARY)] + args, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench {' '.join(args)} exited with "
                           f"{proc.returncode}")
    return lines, json.loads(lines[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    if not a.self_test and not a.workload:
        p.error("--workload is required")

    try:
        build()
        OUT.mkdir(parents=True, exist_ok=True)
        if a.self_test:
            proc = subprocess.run([str(BINARY), "--self-test", "--out-dir",
                                   str(OUT)], cwd=ROOT,
                                  timeout=RUN_TIMEOUT_S)
            return proc.returncode
        common = ["--workload", a.workload, "--seed", str(a.seed),
                  "--out-dir", str(OUT)]
        setups = []
        if not a.trace:
            for _ in range(SETUP_ONLY_RUNS):
                _, r = run_binary(common + ["--setup-only"])
                setups.append(r["metrics"]["setup_s"]["value"])
        lines, result = run_binary(
            common + ["--seconds", str(a.seconds), "--trace", str(a.trace)])
    except (subprocess.SubprocessError, OSError, RuntimeError,
            ValueError, KeyError) as e:
        log(f"failed: {e}")
        return 1

    if not a.trace:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
