#!/usr/bin/env python3
"""Build and run the FEAM benchmark.

Run from the root of a FEAM checkout:

    python3 perfbench/run.py --workload matrix --seed 1 --seconds 20 --trace 0

The benchmark is an OCaml executable (perfbench/bin/main.exe) built from
this checkout's sources with dune into .bench_build/.  Its last stdout
line is the result object; progress goes to stderr.  Outside a FEAM
checkout (no dune-project or lib/ beside perfbench/) it exits with
status 2 and prints no result.
"""

import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/bin/main.exe"


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def main():
    root = os.getcwd()
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune-project")):
        if not os.path.exists(os.path.join(root, needed)):
            fail("run from the root of a FEAM checkout (missing %s)" % needed)
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    env = dict(os.environ)
    # Keep every build product inside the checkout.
    env["DUNE_CACHE"] = "disabled"
    build = subprocess.run(
        [dune, "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", TARGET],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        fail("build failed (exit %d)" % build.returncode)
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "bin", "main.exe")
    run = subprocess.run([exe] + sys.argv[1:], env=env)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
