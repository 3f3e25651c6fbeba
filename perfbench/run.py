#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <infer|dslam|fleet> --seed <n> \\
        --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
builds against the repository's crates by path. This script builds it in
release mode into $CARGO_TARGET_DIR (default: .bench_build at the checkout
root), runs it, and checks that the last line it prints is the result
object with exactly the metrics BENCHMARK.json names for the mode. Build
output goes to stderr, so the result stays the last line of stdout. It
exits non-zero, printing no result, when the build, the run or that check
fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv):
    if "--trace" not in argv or argv.index("--trace") + 1 >= len(argv):
        fail("usage: run.py --workload W --seed N --seconds S --trace 0|1", 2)
    trace = argv[argv.index("--trace") + 1] == "1"
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
        env["CARGO_TARGET_DIR"] = target

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        fail(f"build failed with code {build.returncode}")

    binary = os.path.join(target, "release", "inca-perfbench")
    run = subprocess.run([binary] + argv, cwd=ROOT, env=env,
                         stdout=subprocess.PIPE, text=True)
    if run.returncode != 0:
        fail(f"benchmark exited with code {run.returncode}", run.returncode)
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail("benchmark printed no result")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("last line is not a JSON object")
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    want = expected_metrics(trace)
    if got != want or set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result does not match BENCHMARK.json: got {sorted(got)}", 3)
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main(sys.argv[1:])
