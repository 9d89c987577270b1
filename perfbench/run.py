#!/usr/bin/env python3
"""Build DStress from source and run one benchmark workload.

Usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: serve-en, egj-256 (see perfbench/perfbench.ml).
The benchmark binary and the `dstress` CLI are built with dune into the
checkout's _build directory; the binary measures, checks every released
output, and prints the JSON result as the last line of stdout. Traces,
exact-count records and daemon sockets live under .bench_out/.

Without the DStress sources next to this directory (dune-project, lib/,
bin/) there is nothing to build: the script exits non-zero without a
result.
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join("_build", "default", "perfbench", "perfbench.exe")
DSTRESS = os.path.join("_build", "default", "bin", "dstress.exe")


def run_timeout_s(seconds):
    """A run measures for `seconds` (a traced run replays its queries
    traced, taking about as long again) plus set-up samples and checks;
    anything past this is a hang. A run must end within 180 s, so the
    limit never goes past 170 s."""
    return min(3 * seconds + 90, 170)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    os.chdir(ROOT)
    needed = ("dune-project", "lib", os.path.join("bin", "dstress.ml"))
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        print("perfbench: no DStress sources to build (missing %s)" % ", ".join(missing),
              file=sys.stderr)
        return 2

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", DSTRESS, BENCH],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [BENCH, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dstress", DSTRESS]
    # A session of its own, so a timeout also stops the daemon it spawned.
    proc = subprocess.Popen(cmd, start_new_session=True)
    timeout = run_timeout_s(args.seconds)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run exceeded %d s" % timeout, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
