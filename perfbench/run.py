#!/usr/bin/env python3
"""Builds perfbench from this checkout's sources, then runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The build goes to a directory of its own
for this checkout under .bench_build (or under $CARGO_TARGET_DIR when set),
and its output to standard error.  BENCHMARK.json is the one list of
metrics: the program prints every figure it measured, and this script
picks the declared ones (end_to_end, or per_layer with --trace 1), gives
them their units and prints the result as the last line of standard
output.  Exits non-zero without a result when the build or the run fails,
when a declared end-to-end metric was not measured, or when the program
measured a metric that BENCHMARK.json does not declare.
"""
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    base = base if os.path.isabs(base) else os.path.join(ROOT, base)
    # One build tree per source tree: a build directory shared between
    # checkouts never builds one checkout's code for another.
    tag = hashlib.sha1(HERE.encode()).hexdigest()[:12]
    return os.path.join(base, "perfbench-" + tag)


def build(out):
    jobs = str(min(4, os.cpu_count() or 1))
    # Configuring again is cheap, and recovers from a configure that failed.
    subprocess.run(["cmake", "-S", HERE, "-B", out,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j", jobs,
                    "--target", "perfbench", "reshape_cli"],
                   stdout=sys.stderr, check=True)


def result(raw, spec, trace):
    """The benchmark's result object from the program's raw figures."""
    values = raw["values"]
    declared = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    unknown = sorted(set(values) - declared)
    if unknown:
        raise ValueError(f"metrics not in BENCHMARK.json: {unknown}")
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        if m["name"] in values:
            value = values[m["name"]]
        elif trace:
            value = 0.0  # a layer this workload bypasses
        else:
            raise ValueError(f"end-to-end metric not measured: {m['name']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": raw["correct"], "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}


def main():
    trace = "--trace" in sys.argv and \
        sys.argv[sys.argv.index("--trace") + 1:][:1] != ["0"]
    out = build_dir()
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        build(out)
    except (OSError, ValueError, subprocess.CalledProcessError) as e:
        print(f"perfbench: set-up failed: {e}", file=sys.stderr)
        return 1
    proc = subprocess.run([os.path.join(out, "perfbench")] + sys.argv[1:],
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return proc.returncode or 1
    try:
        line = json.dumps(result(json.loads(lines[-1]), spec, trace))
    except (ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
