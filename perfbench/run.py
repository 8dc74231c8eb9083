#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

The first form configures and builds perfbench/ (the library from src/
plus the benchmark binary) into .bench_build/, runs one workload in its
own process and passes its output through; the last stdout line is the
result JSON.
--smoke runs every workload of BENCHMARK.json at small size, traced and
untraced, and checks that each run is correct and prints every metric
BENCHMARK.json names, with its unit.
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
OUT = ROOT / ".bench_out"
BINARY = BUILD / "perfbench"
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds; build logs go to stderr."""
    if not (ROOT / "src").is_dir():
        sys.exit("perfbench: no src/ tree next to perfbench/ to build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(SOURCE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs], check=True,
                   stdout=sys.stderr)


def run(args):
    """Runs the binary once; returns (exit code, stdout text)."""
    command = [str(BINARY), "--out-dir", str(OUT)] + args
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1, ""
    return proc.returncode, proc.stdout


def smoke():
    """Every workload, both modes, small sizes; every named metric present."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in spec["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            name = workload["name"]
            code, out = run(["--workload", name, "--seed", "7", "--seconds",
                             "1", "--trace", trace, "--smoke"])
            found = len(problems)
            lines = out.strip().splitlines()
            if code != 0 or not lines:
                problems.append("%s trace=%s: exit %d" % (name, trace, code))
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s trace=%s: incorrect" % (name, trace))
            for metric in spec[key]:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append("%s trace=%s: metric %s missing or not "
                                    "in %s" % (name, trace, metric["name"],
                                               metric["unit"]))
            print("smoke %-17s trace=%s %s" % (
                name, trace, "ok" if len(problems) == found else "FAILED"),
                file=sys.stderr)
    for p in problems:
        print("perfbench smoke: " + p, file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 1
    if args.smoke:
        return smoke()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    code, out = run(["--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", args.trace])
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
