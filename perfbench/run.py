#!/usr/bin/env python3
"""Build and run the Cluster-stack benchmark from the repository root.

    python3 perfbench/run.py --workload mix-256 --seed 1 --seconds 20 --trace 0

Builds perfbench/main.exe with dune, runs it with the given arguments,
and relays its output.  The last line of output is the result object;
this wrapper also checks that the result names exactly the metrics that
BENCHMARK.json declares for the mode (end_to_end for --trace 0,
per_layer for --trace 1), and exits nonzero otherwise or when the
benchmark's output checks failed.
"""

import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def declared_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("run.py: run from the repository root (no dune-project or lib/ here)", file=sys.stderr)
        return 2
    build = subprocess.run(
        # The shared dune cache lives outside the checkout; keep the build inside it.
        ["dune", "build", "--root", ".", "--cache=disabled", "./perfbench/main.exe"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=880,
    )
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        print("run.py: build failed", file=sys.stderr)
        return 1
    run = subprocess.run([EXE] + argv, stdout=subprocess.PIPE, text=True, timeout=175)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0:
        return run.returncode
    if "--smoke" in argv:
        return 0
    result = json.loads(run.stdout.strip().splitlines()[-1])
    trace = argv[argv.index("--trace") + 1] == "1"
    want = declared_metrics(trace)
    if list(result["metrics"]) != want:
        print("run.py: reported metrics differ from BENCHMARK.json", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
