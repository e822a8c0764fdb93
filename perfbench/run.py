#!/usr/bin/env python3
"""Build the repo benchmark from source, then run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload single_1t --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (which compiles the
library from src/) into .bench_build/perfbench; later calls only rebuild
what changed. Build output goes to stderr, so the last line of stdout is
the benchmark's JSON result. All arguments are forwarded to the
benchmark binary (see perfbench/README.md). Exits 2 without a result
when the library sources are missing or the build fails.

BENCHMARK.json is the one list of metrics: the result's metric names and
units must be exactly its end_to_end list (--trace 0) or its per_layer
list (--trace 1), else this exits 3 after the result.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench-work")
BINARY = os.path.join(BUILD_DIR, "perfbench")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
BUILD_JOBS = "4"


def _run_to_stderr(cmd):
    """Run a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: library sources not found at src/ (run from a full checkout)",
              file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if not _run_to_stderr(["cmake", "-S", HERE, "-B", BUILD_DIR,
                               "-DCMAKE_BUILD_TYPE=Release"]):
            return False
    return _run_to_stderr(["cmake", "--build", BUILD_DIR, "-j", BUILD_JOBS])


def metrics_mismatch(argv, last_line):
    """Differences between the result's metrics and BENCHMARK.json's list."""
    if "--trace" not in argv or not os.path.isfile(BENCHMARK):
        return []
    i = argv.index("--trace")
    with open(BENCHMARK) as f:
        listed = json.load(f)["per_layer" if argv[i + 1:i + 2] == ["1"] else "end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = {k: v["unit"] for k, v in json.loads(last_line)["metrics"].items()}
    return ["%s: result %s, BENCHMARK.json %s" % (k, got.get(k, "missing"), want.get(k, "missing"))
            for k in sorted(set(want) | set(got)) if want.get(k) != got.get(k)]


def main(argv):
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    os.makedirs(WORK_DIR, exist_ok=True)
    proc = subprocess.run([BINARY, "--work-dir", WORK_DIR] + argv, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        mismatch = metrics_mismatch(argv, lines[-1])
        if mismatch:
            print("perfbench: metrics differ from BENCHMARK.json:\n  " + "\n  ".join(mismatch),
                  file=sys.stderr)
            return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
