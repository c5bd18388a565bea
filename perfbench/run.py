#!/usr/bin/env python3
"""Build and run the repository benchmark.

One run (what BENCHMARK.json's command invokes):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds the csense library and the benchmark program from source into
.bench_build/perfbench (Release), runs the workload in its own process and
passes its output through. The last line of standard output is the JSON
result. Build output goes to standard error.

Steadiness report (how the bounds in BENCHMARK.json were set):

    python3 perfbench/run.py --report K [--workloads a,b] [--seconds S]
                             [--seed N] [--sets 2] [--trace 0|1]

runs each workload K times with seeds N, N+1, ... and prints each metric's
median, quartiles and spread (interquartile range over median) next to its
bound. With --sets 2 it runs the K seeds twice and also prints how far the
second set's median moved from the first's.

Self-tests:

    python3 perfbench/run.py --self-test
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; exits non-zero on failure."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        log(f"no csense sources next to {HERE}; nothing to build")
        sys.exit(1)
    if shutil.which("cmake") is None:
        log("cmake not found")
        sys.exit(1)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("configure failed")
            sys.exit(1)
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(
        ["cmake", "--build", BUILD, "-j", jobs], stdout=sys.stderr, stderr=sys.stderr
    ).returncode:
        log("build failed")
        sys.exit(1)


def run_once(workload, seed, seconds, trace, echo=True):
    """Runs one workload process; returns (exit code, parsed result or None)."""
    args = [
        os.path.join(BUILD, "perfbench"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--store", os.path.join(BUILD, f"store-{os.getpid()}"),
    ]
    if trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        args += ["--spans", os.path.join(spans, f"{workload}-seed{seed}.jsonl")]
    try:
        proc = subprocess.run(
            args, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        log(f"{workload} seed {seed} timed out after {RUN_TIMEOUT_S} s")
        return 1, None
    lines = proc.stdout.strip().splitlines()
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    if proc.returncode or not lines:
        return proc.returncode or 1, None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return 1, None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return 1, None
    return 0, result


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def report(args):
    bench = load_benchmark()
    names = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]
    ]
    metrics = bench["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    seconds = args.seconds or bench["run_seconds"]
    status = 0
    for name in names:
        sets = []
        for s in range(args.sets):
            values = {}
            for k in range(args.report):
                seed = args.seed + k
                code, result = run_once(name, seed, seconds, args.trace, echo=False)
                if code or not result["correct"]:
                    log(f"{name} seed {seed}: run failed ({result})")
                    status = 1
                    continue
                for metric, v in result["metrics"].items():
                    values.setdefault(metric, []).append(v["value"])
                log(f"{name} set {s + 1} seed {seed}: " + json.dumps(
                    {m: v["value"] for m, v in result["metrics"].items()}))
            sets.append(values)
        print(f"\n{name}: {args.report} seeds from {args.seed}, {seconds} s per run")
        print(f"  {'metric':28} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}" + (f" {'shift':>8}" if args.sets > 1 else ""))
        for metric in bounds:
            vals = sets[0].get(metric, [])
            if len(vals) < 2:
                print(f"  {metric:28} (fewer than 2 values)")
                continue
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds[metric]
            line = (f"  {metric:28} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                    f"{spread:8.4f} {bound if bound is not None else '-':>6}")
            if args.sets > 1 and len(sets[1].get(metric, [])) >= 1:
                med2 = statistics.median(sets[1][metric])
                line += f" {(med2 - med) / med if med else float('nan'):+8.4f}"
            print(line)
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", type=int, metavar="K")
    parser.add_argument("--workloads")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    build()
    if args.self_test:
        return subprocess.run(
            [os.path.join(BUILD, "perfbench_selftest"),
             os.path.join(ROOT, "BENCHMARK.json"),
             os.path.join(BUILD, "selftest-store")],
            cwd=ROOT, timeout=RUN_TIMEOUT_S,
        ).returncode
    if args.report:
        return report(args)
    if not args.workload:
        parser.error("--workload is required")
    seconds = args.seconds if args.seconds else load_benchmark()["run_seconds"]
    code, _ = run_once(args.workload, args.seed, seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
