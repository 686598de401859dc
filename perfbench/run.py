#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from the repository root:

  python3 perfbench/run.py --workload join_rect --seed 1 --seconds 25 --trace 0
      One measured run. The last line of stdout is the JSON result.
      Workloads: join_rect, join_poly, svc_steady (BENCHMARK.json) and
      svc_overload (run by hand; see README.md).
  python3 perfbench/run.py --smoke
      The benchmark's own test: every workload at tiny scale, plain and
      traced, with every correctness check, the result-line schema against
      BENCHMARK.json, and the match digest repeated across two runs.
  python3 perfbench/run.py --steadiness --workload svc_steady [--runs 10]
                           [--first-seed 1] [--seconds 25]
      Repeats the run over consecutive seeds and reports, per end-to-end
      metric, the median, the quartiles and their spread against the bound
      in BENCHMARK.json.

The program is built with CMake from perfbench/CMakeLists.txt, which
compiles the library from src/, into .bench_build/ at the repository root.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD_DIR, "cmake")
BINARY = os.path.join(CMAKE_DIR, "sj_perfbench")
OUT_DIR = os.path.join(".bench_build", "out")  # relative: socket paths stay short
RUN_TIMEOUT_S = 175
EXTRA_WORKLOADS = ["svc_overload"]  # runnable, not in BENCHMARK.json


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the measuring program; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/CMakeLists.txt) not found next to perfbench/")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    # One build at a time per checkout.
    with open(os.path.join(BUILD_DIR, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", CMAKE_DIR, "--target", "sj_perfbench",
                      "-j", str(min(os.cpu_count() or 1, 4))])
        with open(log_path, "w") as log:
            for step in steps:
                if subprocess.run(step, cwd=ROOT, stdout=log,
                                  stderr=subprocess.STDOUT).returncode != 0:
                    with open(log_path) as f:
                        sys.stderr.write("".join(f.readlines()[-40:]))
                    fail(f"build failed (log: {log_path})")
    return BINARY


def run_once(workload, seed, seconds, trace, tiny=False, echo=False):
    """Runs the program once; returns (exit code, stdout, parsed result)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", OUT_DIR]
    if tiny:
        cmd += ["--scale", "tiny"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=None if echo else subprocess.DEVNULL,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, proc.stdout, result


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def smoke():
    spec = load_spec()
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    # svc_overload runs by hand (README.md); smoke-test it with the rest.
    names = [w["name"] for w in spec["workloads"]]
    names += [n for n in EXTRA_WORKLOADS if n not in names]
    for name in names:
        known_problems = len(problems)
        digests = []
        for trace, want in ((0, e2e), (1, layers), (0, e2e)):
            code, out, result = run_once(name, 7, 1, trace, tiny=True)
            label = f"{name} trace={trace}"
            if code != 0 or result is None:
                problems.append(f"{label}: exit {code}, result {result!r}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{label}: correct={result['correct']} "
                                f"failed={result['failed']}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got) ^ set(want))}")
            if trace == 0:
                zero = [k for k, v in result["metrics"].items()
                        if not v["value"] > 0]
                if zero:
                    problems.append(f"{label}: non-positive {zero}")
                digests.append([l for l in out.splitlines()
                                if l.startswith("check:")])
        if len(digests) == 2 and digests[0] != digests[1]:
            problems.append(f"{name}: match digest differs between runs: "
                            f"{digests}")
        ok = len(problems) == known_problems
        print(f"smoke {name}: {'ok' if ok else 'FAILED, see below'}", flush=True)
    code, _, result = run_once("no_such_workload", 1, 1, 0, tiny=True)
    if code == 0 or result is not None:
        problems.append("an unknown workload did not fail cleanly")
    for p in problems:
        print(f"FAIL {p}")
    print("smoke: " + ("PASS" if not problems else f"{len(problems)} problems"))
    return 0 if not problems else 1


def steadiness(workload, runs, first_seed, seconds):
    spec = load_spec()
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(first_seed, first_seed + runs):
        code, _, result = run_once(workload, seed, seconds, 0)
        if code != 0 or result is None or not result["correct"]:
            fail(f"{workload} seed {seed} failed (exit {code})")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
    print(f"\n{workload}: {runs} runs, seeds {first_seed}..{first_seed + runs - 1}")
    print(f"{'metric':<18} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6}  verdict")
    worst = 0.0
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med
        ratio = spread / m["bound"]
        if m["name"] != "setup_s":
            worst = max(worst, ratio)
        verdict = ("steady" if ratio <= 1 / 3 else
                   "within bound" if ratio <= 1 else "TOO WIDE")
        print(f"{m['name']:<18} {med:>11.5g} {q1:>11.5g} {q3:>11.5g} "
              f"{spread:>7.3f} {m['bound']:>6.2f}  {verdict}")
    return 0 if worst <= 1 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        default=load_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    build()
    if args.smoke:
        return smoke()
    if not args.workload:
        parser.error("--workload is required")
    if args.steadiness:
        return steadiness(args.workload, args.runs, args.first_seed,
                          args.seconds)
    code, out, _ = run_once(args.workload, args.seed, args.seconds,
                            args.trace, echo=True)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
