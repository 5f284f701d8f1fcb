#!/usr/bin/env python3
"""Builds the xqdb benchmark driver from source and runs one workload.

    python3 perfbench/run.py --workload catalogue|probe|probe_write \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run it from the repository root. The driver is built with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); traced runs
write their spans and exact counters under .bench_out/. The last line of
stdout is the driver's JSON result, checked here against the metric names
BENCHMARK.json declares; any failure exits nonzero without a result line.
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
DRIVER_TIMEOUT_S = 175
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build(target):
    build_dir = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (build_dir / "perfbench").resolve()
    configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not (build_dir / "Makefile").exists():
        configure += ["-G", "Ninja"]
    jobs = str(os.cpu_count() or 1)
    for cmd in (configure,
                ["cmake", "--build", str(build_dir), "-j", jobs,
                 "--target", target]):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode:
            sys.stderr.write(proc.stdout[-8000:])
            fail(f"build failed: {' '.join(cmd)}")
    return build_dir / target


def declared_metrics(trace):
    spec = pathlib.Path("BENCHMARK.json")
    if not spec.exists():
        return None
    section = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in json.loads(spec.read_text())[section]}


def validate(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail(f"last driver line is not JSON: {line[:200]}")
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}")
    declared = declared_metrics(trace)
    if declared is not None:
        metrics = result["metrics"]
        if set(metrics) != set(declared):
            fail(f"metrics differ from BENCHMARK.json: missing "
                 f"{sorted(set(declared) - set(metrics))}, extra "
                 f"{sorted(set(metrics) - set(declared))}")
        for name, unit in declared.items():
            if metrics[name]["unit"] != unit:
                fail(f"{name}: unit {metrics[name]['unit']} != {unit}")
    if result["attempted"] < 1:
        fail("no request was attempted")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's unit test")
    args = parser.parse_args()

    if args.self_test:
        sys.exit(subprocess.run([str(build("perfbench_test"))]).returncode)
    if not args.workload:
        parser.error("--workload is required")

    driver = build("perfbench_driver")
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"driver exited with {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(validate(lines[-1], args.trace)))


if __name__ == "__main__":
    main()
