#!/usr/bin/env python3
"""Build and run one workload of the FlexCL benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload predict-cold --seed 1 --seconds 10 --trace 0

The benchmark is an OCaml executable (perfbench/bin/main.exe) built with
dune from the checkout's sources. Build output goes to stderr; the last
line of stdout is the result object the executable prints. The exit code
is the executable's, or 2 when the build fails.
"""

import os
import shutil
import subprocess
import sys

TARGET = os.path.join("perfbench", "bin", "main.exe")
RUN_TIMEOUT_S = 170


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    return None


def build():
    dune = dune_command()
    if dune is None:
        print("perfbench: dune not found on PATH", file=sys.stderr)
        return False
    proc = subprocess.run(
        dune + ["build", "--root", ".", "--display", "quiet", "./" + TARGET],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    return proc.returncode == 0


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join("_build", "default", TARGET)
    try:
        proc = subprocess.run([exe] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
