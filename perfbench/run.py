#!/usr/bin/env python3
"""Build and run the repository's benchmark.

    python3 perfbench/run.py --workload sim-checked --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root.  The first call configures and builds
perfbench/ (and, through it, the libraries under src/) into
.bench_build/perfbench; later calls only rebuild what changed.  The
binary's last stdout line is the result object; this script passes it
through after checking its metric names and units against
BENCHMARK.json.  A traced run (--trace 1) writes its spans to
.bench_build/perfbench/spans/.  See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("sim-checked", "sim-paper", "native-bank")
# A run measures for --seconds; this leaves room for its set-up and
# drift guard while staying inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build incrementally; logs go to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def check_metrics(result, trace):
    """The result must carry exactly the metrics BENCHMARK.json lists."""
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        return
    with open(spec_path) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want != got:
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, unit mismatch %s" % (
            sorted(set(want) - set(got)), sorted(set(got) - set(want)),
            sorted(k for k in want if k in got and want[k] != got[k])))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="run the drift guard of the phase-split cell driver")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        ap.error("--seed must be >= 0 and --seconds 1..120")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ beside perfbench/: run from a full checkout of the repository")
    build()

    cmd = [BINARY, "--seed", str(args.seed), "--commit", git_commit()]
    if args.self_test:
        cmd.append("--self-test")
    else:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--workload", args.workload, "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--spans", os.path.join(spans, "%s-seed%d.tsv" % (args.workload, args.seed))]
    # The program gets only generated inputs: no FLEXTM_* override
    # (fault seed, auditor level, memory backend, ...) leaks in.
    env = {k: v for k, v in os.environ.items() if not k.startswith("FLEXTM_")}
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if args.self_test:
        print("\n".join(lines))
        return proc.returncode
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("benchmark exited with code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(proc.stdout)
        fail("last line is not a result object")
    check_metrics(result, args.trace == 1)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
