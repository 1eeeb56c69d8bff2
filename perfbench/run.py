#!/usr/bin/env python3
"""Build and run the Tessera benchmark.

    python3 perfbench/run.py --workload collect|fork|run|serve \
        --seed N --seconds S --trace 0|1

Run from the root of a Tessera checkout.  Builds the benchmark and the
model server from source with dune, then runs one workload and relays its
report; the last line of standard output is the benchmark's JSON result.
Exits non-zero, printing no result, when the checkout lacks the sources.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = "perfbench"
EXE = os.path.join("_build", "default", BENCH, "tbench.exe")
SERVER = os.path.join("_build", "default", "bin", "tessera_server.exe")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["collect", "fork", "run", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = os.path.dirname(HERE)
    os.chdir(root)
    for need in ("dune-project", "lib", "bin"):
        if not os.path.exists(need):
            fail("not a Tessera checkout (missing %s)" % need)

    # --cache=disabled: write nothing outside the checkout
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled",
         "./" + EXE, "./" + SERVER],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        fail("build failed")

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--server", SERVER,
           "--models", os.path.join(BENCH, "models"),
           "--out", os.path.join(BENCH, "out")]
    # its own process group, so a timeout also stops the model server
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("workload timed out")
    if code != 0:
        fail("workload failed with exit code %d" % code)


if __name__ == "__main__":
    main()
