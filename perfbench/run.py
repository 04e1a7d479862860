#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench).

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S \
        --trace 0|1 [--tiny]

Run from the root of a checkout. The first call configures and builds
perfbench/CMakeLists.txt (the library sources in src/ plus the benchmark program) in
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
rebuild incrementally. One workload runs in one process. The last line of
stdout is the JSON result: correct, attempted, failed, metrics (the
end-to-end metrics of BENCHMARK.json when --trace 0, the per-layer ones
when --trace 1). `--workload all` runs every workload in turn and prints
each workload's headline figures under the names the workloads define.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SOURCE_DIR = BENCH_DIR.parent / "src"
WORKLOADS = ("fleet_lifecycle", "auth_flood", "secure_inference")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return Path(root) / "perfbench"


def build():
    """Configures (once) and builds perfbench; returns the binary path."""
    if not (SOURCE_DIR / "CMakeLists.txt").is_file():
        fail(f"library sources not found in {SOURCE_DIR}; run from a checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    binary = out / "perfbench"
    if not binary.is_file():
        fail(f"build produced no binary at {binary}")
    return binary


def load_spec():
    """Metric names and units from BENCHMARK.json, if the checkout has it."""
    for path in (Path("BENCHMARK.json"), BENCH_DIR.parent / "BENCHMARK.json"):
        if path.is_file():
            spec = json.loads(path.read_text())
            return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
                    {m["name"]: m["unit"] for m in spec["per_layer"]})
    return None


def run_one(binary, workload, args):
    """Runs one workload in its own process; returns (code, lines, result)."""
    work = build_dir() / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work)]
    if args.trace:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}.csv")]
    if args.tiny:
        cmd.append("--tiny")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        shutil.rmtree(work, ignore_errors=True)
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    shutil.rmtree(work, ignore_errors=True)
    lines = done.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done.returncode, lines[:-1] if result else lines, result


def check_result(workload, result, trace):
    """Every advertised metric is present, with its unit; nothing else."""
    spec = load_spec()
    if spec is None:
        return []
    expected = spec[1] if trace else spec[0]
    got = result["metrics"]
    problems = []
    for name, unit in expected.items():
        if name not in got:
            problems.append(f"{workload}: missing metric {name}")
        elif got[name]["unit"] != unit:
            problems.append(f"{workload}: {name} unit {got[name]['unit']} "
                            f"!= {unit}")
    for name in got:
        if name not in expected:
            problems.append(f"{workload}: unexpected metric {name}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs (smoke test)")
    args = parser.parse_args()

    binary = build()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    worst = 0
    for workload in workloads:
        code, lines, result = run_one(binary, workload, args)
        for line in lines:
            print(line)
        if result is None:
            fail(f"{workload} printed no result (exit code {code})")
        problems = check_result(workload, result, args.trace)
        for problem in problems:
            print(f"perfbench: {problem}", file=sys.stderr)
        if problems:
            sys.exit(1)
        results[workload] = (result, lines)
        worst = worst or code

    if len(workloads) == 1:
        print(json.dumps(results[workloads[0]][0]))
        sys.exit(worst)

    # All workloads: each one's headline figures by their own names, then
    # one combined result line with every metric prefixed by its workload.
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    print(f"{'workload':<18} {'metric':<48} {'value':>14} unit")
    for workload, (result, lines) in results.items():
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        named = {}
        for line in lines:
            parts = line.split()
            if len(parts) == 4 and parts[0] == "named":
                named[parts[1]] = {"value": float(parts[2]), "unit": parts[3]}
        shown = dict(named)
        for name, metric in result["metrics"].items():
            # Untraced: set-up and memory sit beside the named figures;
            # traced: the layers this workload touched.
            if (name in ("setup_s", "peak_rss_mib") if not args.trace
                    else metric["value"] != 0):
                shown[name] = metric
        for name, metric in sorted(shown.items()):
            print(f"{workload:<18} {name:<48} {metric['value']:>14.6g} "
                  f"{metric['unit']}")
        for name, metric in {**result["metrics"], **named}.items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    sys.exit(worst)


if __name__ == "__main__":
    main()
