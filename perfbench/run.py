#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The first call configures and builds the
benchmark package (perfbench/CMakeLists.txt, which builds the libraries
from src/) in Release mode under .bench_build/; later calls rebuild only
what changed.  The benchmark's suite cache, generated traces and span
files live under .bench_build/work/.  `--workload all` runs every
workload of BENCHMARK.json in turn, prints each metric by name with its
unit, and ends with one combined result whose metric names carry the
workload as a prefix.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json; with --trace 1 the per-layer ones,
where a layer the workload does not exercise reads 0.  The exit status
is non-zero, and no result is printed, when the build fails, a metric
is not a finite number, or the program's output does not match
BENCHMARK.json; it is also non-zero, after the result, when an output
check failed.
"""

import argparse
import fcntl
import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
WORK_DIR = BUILD_ROOT / "work"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then build; compiler output goes to stderr."""
    BUILD_ROOT.mkdir(exist_ok=True)
    with open(BUILD_ROOT / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD_DIR / "CMakeCache.txt").exists():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                         "-DCMAKE_BUILD_TYPE=Release", *generator]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(BUILD_DIR, ignore_errors=True)
                fail("configuring the benchmark failed")
        compile_ = ["cmake", "--build", str(BUILD_DIR), "--parallel", "4"]
        if subprocess.run(compile_, stdout=sys.stderr).returncode != 0:
            fail("building the benchmark failed")
    return BUILD_DIR / "perfbench"


def run(binary, args):
    """Run the program; a SIGTERM to this script stops it first."""
    cmd = [str(binary), "--workload", args.workload, "--seed", args.seed,
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", str(WORK_DIR)]
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)

    def stop(signum, _frame):
        child.terminate()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    out, _ = child.communicate()
    return child.returncode, out


def run_workload(binary, spec, args):
    """One workload: its output lines, then its result checked against
    BENCHMARK.json.  @return (exit status, result)."""
    declared = spec["per_layer" if args.trace == "1" else "end_to_end"]
    code, out = run(binary, args)
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"the program printed no result (exit status {code})")

    metrics = result["metrics"]
    undeclared = set(metrics) - {m["name"] for m in declared}
    if undeclared:
        fail(f"metrics missing from BENCHMARK.json: {sorted(undeclared)}")
    for m in declared:
        if m["name"] not in metrics:
            if args.trace == "0":
                fail(f"end-to-end metric {m['name']} was not measured")
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
        elif not isinstance(metrics[m["name"]]["value"], (int, float)):
            fail(f"{m['name']} is not a finite number")
        elif metrics[m["name"]]["unit"] != m["unit"]:
            fail(f"{m['name']} is in {metrics[m['name']]['unit']}, "
                 f"BENCHMARK.json says {m['unit']}")
    return code, {"correct": result["correct"],
                  "attempted": result["attempted"],
                  "failed": result["failed"],
                  "metrics": metrics}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    spec_file = ROOT / "BENCHMARK.json"
    if not spec_file.exists():
        fail(f"{spec_file} is missing")
    spec = json.loads(spec_file.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        fail(f"unknown workload {args.workload!r}")
    binary = build()
    if args.workload != "all":
        code, result = run_workload(binary, spec, args)
        print(json.dumps(result))
        return code

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in names:
        args.workload = name
        code, result = run_workload(binary, spec, args)
        worst = max(worst, code)
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, v in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = v
            print(f"{name:14s} {metric:42s} {v['value']:14.6g} {v['unit']}")
    print(json.dumps(total))
    return worst


if __name__ == "__main__":
    sys.exit(main())
