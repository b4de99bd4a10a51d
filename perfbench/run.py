#!/usr/bin/env python3
"""Build and run the SpTRSV benchmark from a source checkout.

    python3 perfbench/run.py --workload solve-sync --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Every other argument (--rates, --p99-limit-ms) is passed to the benchmark
binary unchanged. The binary is built on first use
into .bench_build/perfbench under the checkout root; records and traces go to
.bench_build/perfbench/results. The last stdout line is the benchmark's JSON
result. Exit codes: 0 verified, 1 wrong/failed result or benchmark error,
2 bad arguments or no library sources to build.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(targets):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"no library sources next to {HERE.name}/; nothing to benchmark")
        sys.exit(2)
    jobs = str(max(1, os.cpu_count() or 1))
    configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(configure)
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target"] + targets)
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log(f"build failed: {' '.join(cmd)}")
            sys.exit(2)


def run(cmd, timeout):
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"benchmark exceeded {timeout} s; killed")
        sys.exit(1)
    return proc.returncode, out


def main(argv):
    if argv == ["--selftest"]:
        build(["perfbench_tests"])
        code, out = run([str(BUILD / "perfbench_tests")], RUN_TIMEOUT_S)
        sys.stdout.write(out)
        return code
    build(["perfbench"])
    results = BUILD / "results"
    code, out = run([str(BUILD / "perfbench")] + argv +
                    ["--out-dir", str(results)], RUN_TIMEOUT_S)
    sys.stdout.write(out)
    sys.stdout.flush()
    if code != 0:
        log(f"benchmark exited with {code}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
