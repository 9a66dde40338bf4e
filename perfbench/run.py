#!/usr/bin/env python3
"""The evord benchmark: builds evordd and the evbench program from source,
then runs one seeded workload against a live daemon.

    python3 perfbench/run.py --workload warm_pairs --seed 1 --seconds 20 --trace 0

prints '#' report lines and, last, one JSON result line.  Two more modes:

    python3 perfbench/run.py --smoke            # tiny sizes, checks the output
    python3 perfbench/run.py --steadiness 10    # median and quartiles per metric

Run it from anywhere; it works in the checkout that holds it and builds
into <checkout>/.bench_build.
"""
import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
EXE = BUILD / "evbench"
SPEC = ROOT / "BENCHMARK.json"
RUN_TIMEOUT_S = 175
# Runnable and smoke-tested, but not in BENCHMARK.json: on a shared 4-vCPU
# host its quartile spreads over 10 seeds reached 0.21-0.26 of the median
# (the memory-heavy ladder climbs drift with the host), above the bounds.
UNGATED_WORKLOADS = ["anytime_large"]


def build():
    """Configures once and builds evbench and the daemon; False on failure."""
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", "4", "--target", "evbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return EXE.exists()


def run_evbench(args, capture):
    """Runs evbench in its own process group and reaps everything it left."""
    proc = subprocess.Popen([str(EXE)] + args, cwd=ROOT, start_new_session=True,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = b""
        proc.kill()
        proc.wait()
        print("evbench timed out", file=sys.stderr)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, (out or b"").decode()


def result_of(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def smoke(spec):
    """Every workload at tiny size, untraced and traced: each named metric
    prints with its unit, and a corrupted reference makes the run fail."""
    problems = []
    for name in [w["name"] for w in spec["workloads"]] + UNGATED_WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, out = run_evbench(["--workload", name, "--seed", "1", "--seconds", "1",
                                     "--trace", str(trace), "--smoke"], capture=True)
            res = result_of(out)
            if code != 0 or res is None or not res["correct"]:
                problems.append(f"{name} trace={trace}: exit {code}")
                continue
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace={trace}: metrics {sorted(set(got) ^ set(want))} "
                                f"or units differ")
        code, out = run_evbench(["--workload", name, "--seed", "1", "--seconds", "1",
                                 "--trace", "0", "--smoke", "--corrupt-reference"],
                                capture=True)
        res = result_of(out)
        if code != 1 or res is None or res["correct"] or res["failed"] < 1:
            problems.append(f"{name}: a wrong reference answer did not fail the run")
    for p in problems:
        print("smoke: FAIL", p)
    print("smoke:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 0 if not problems else 1


def steadiness(spec, runs, workloads):
    """Runs each workload `runs` times on seeds 1..runs; per end-to-end
    metric prints median, quartiles and the quartile spread against the
    metric's bound."""
    status = 0
    for name in workloads:
        values = {}
        for seed in range(1, runs + 1):
            code, out = run_evbench(["--workload", name, "--seed", str(seed), "--seconds",
                                     str(spec["run_seconds"]), "--trace", "0"], capture=True)
            res = result_of(out)
            if code != 0 or res is None:
                print(f"{name} seed={seed}: exit {code}")
                status = 1
                continue
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        for m in spec["end_to_end"]:
            vals = values.get(m["name"], [])
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            flag = "" if spread <= m["bound"] / 3 else (
                "  > bound/3" if spread <= m["bound"] else "  > BOUND")
            print(f"{name:14s} {m['name']:18s} median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
                  f"spread={spread:.3f} bound={m['bound']}{flag}")
    return status


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", default="1")
    ap.add_argument("--seconds")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--steadiness", type=int, metavar="RUNS")
    args = ap.parse_args()

    if not build():
        print("build failed", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    if args.smoke:
        return smoke(spec)
    if args.steadiness:
        names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
        return steadiness(spec, args.steadiness, names)
    if not args.workload:
        ap.error("--workload is required")
    seconds = args.seconds or str(spec["run_seconds"])
    code, _ = run_evbench(["--workload", args.workload, "--seed", args.seed,
                           "--seconds", seconds, "--trace", args.trace], capture=False)
    return code if code is not None else 2


if __name__ == "__main__":
    sys.exit(main())
