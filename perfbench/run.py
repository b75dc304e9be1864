#!/usr/bin/env python3
"""Build and run the end-to-end VQA benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. Each run first brings the Release build
of the repository's libraries and the benchmark up to date under
.bench_build/ (the first run builds from scratch; later runs are
incremental no-ops), then replaces itself with the benchmark binary.
Build output goes to standard error; the benchmark's report, ending in
one JSON line, goes to standard output. Workloads: fig17-first-order,
fig17-second-order, sampling-mitigated, serve-multitenant.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: the repository's sources (src/) are missing")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"perfbench: build failed: {err}")
    binary = os.path.join(BUILD, "perfbench")
    out_dir = os.path.join(BUILD, "perfbench-out")
    os.execv(binary, [binary] + sys.argv[1:] + ["--out-dir", out_dir])


if __name__ == "__main__":
    main()
