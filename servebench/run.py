#!/usr/bin/env python3
"""Builds relap_serve and the servebench load generator from source, then
runs one benchmark workload.

    python3 servebench/run.py --workload warm-hits|cold-solves|mixed-churn \
        --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR when set,
else .bench_build; scratch files go to a work directory inside it and are
removed afterwards. Build output goes to stderr, so the last stdout line is
the benchmark's JSON result. See servebench/README.md for the metrics.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        sys.exit("servebench: no relap source tree next to servebench/")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", str(min(os.cpu_count() or 1, 4)),
                    "--target", "relap_serve", "servebench"], check=True, stdout=sys.stderr)


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit("servebench: build failed: %s" % error)
    workdir = os.path.join(build_dir, "work")
    os.makedirs(workdir, exist_ok=True)
    command = [os.path.join(build_dir, "servebench"),
               "--server", os.path.join(build_dir, "relap", "relap_serve"),
               "--workdir", workdir] + sys.argv[1:]
    sys.exit(subprocess.run(command).returncode)


if __name__ == "__main__":
    main()
