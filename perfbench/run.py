#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 20 --trace 0

The benchmark is compiled (Release) into .bench_build at the repository root on
first use; later runs only re-check the build. Build output goes to stderr,
so the benchmark's last stdout line stays the JSON result. Exits non-zero
without a result when the sources are missing or the build fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    env = dict(os.environ, OMP_NUM_THREADS="1")
    return subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
