#!/usr/bin/env python3
"""Build the prover benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout of the repository. It builds
perfbench/main.exe with dune (output in _build), then runs the workload in
a fresh process whose last stdout line is the JSON result. Spill files go
to .perfbench_tmp in the checkout. Workloads and metrics are listed in
BENCHMARK.json; main.ml says how each is measured. `--workload all` runs
every workload of BENCHMARK.json in turn, each in its own process.
"""
import json
import os
import subprocess
import sys


def main():
    here = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("perfbench: run from the root of a repository checkout "
                 "(no dune-project or lib/ here)")
    tmp = os.path.abspath(".perfbench_tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp, DUNE_CACHE="disabled")
    target = os.path.join(here, "main.exe")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./" + target],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit(f"perfbench: build failed with code {build.returncode}")
    exe = os.path.join("_build", "default", target)
    args = sys.argv[1:]
    i = args.index("--workload") + 1 if "--workload" in args else len(args)
    runs = [args]
    if args[i:i + 1] == ["all"]:
        with open("BENCHMARK.json") as f:
            runs = [args[:i] + [w["name"]] + args[i + 1:] for w in json.load(f)["workloads"]]
    code = 0
    for argv in runs:
        code = max(code, subprocess.run([exe] + argv, env=env).returncode)
    sys.exit(code)


if __name__ == "__main__":
    main()
