#!/usr/bin/env python3
"""Builds and runs the repository benchmark (nipo_bench).

One run, as BENCHMARK.json's command does it; the last line of standard
output is the JSON result:

    python3 nipobench/run_benchmark.py --workload NAME --seed N \
        --seconds S --trace 0|1

Sets of runs, to measure spread and check that two sets of the same code
agree within every metric's bound:

    python3 nipobench/run_benchmark.py --sets 2 [--seconds S] [--out PATH]

Each set runs every workload with seeds 1 to 10, then once traced.

Run from anywhere; the build goes to .bench_build at the repository root.
Exits non-zero when a run fails, a result is wrong, or (with --sets) a
spread or set-to-set difference exceeds its bound.
"""

import argparse
import fcntl
import functools
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "nipo_bench"
BUILD_TIMEOUT_S = 700
# A run lasts --seconds plus set-up, warm-up and, when traced, one more
# pass and the probes.
RUN_OVERHEAD_S = 150
RUNS = 10


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures once, then builds nipo_bench; serialised by a lock."""
    BUILD.mkdir(exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not any((BUILD / f).exists() for f in ("Makefile", "build.ninja")):
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "--target",
                      "nipo_bench", "-j", jobs])
        for step in steps:
            done = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
            if done.returncode != 0:
                log(done.stdout[-4000:])
                raise RuntimeError("build failed: " + " ".join(step))


@functools.lru_cache(maxsize=None)
def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "describe", "--always", "--dirty",
                               "--abbrev=12"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=30)
        return done.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_once(workload, seed, seconds, trace, echo):
    """Runs one workload in its own process; returns its JSON result."""
    results = BUILD / "results"
    results.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    json_path = results / f"{tag}.json"
    if json_path.exists():
        json_path.unlink()
    cmd = [str(BINARY), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--json={json_path}"]
    if trace:
        cmd.append(f"--trace={results / (tag + '.trace.json')}")
    env = dict(os.environ, NIPO_BENCH_COMMIT=commit())
    done = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=seconds + RUN_OVERHEAD_S)
    if echo:
        sys.stdout.write(done.stdout)
    sys.stderr.write(done.stderr)
    if not json_path.exists():
        raise RuntimeError(f"{tag}: exit {done.returncode}, no result")
    with open(json_path) as f:
        return json.load(f)


def single(args, spec):
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log(f"unknown workload {args.workload}; expected one of {names}")
        return 2
    build()
    result = run_once(args.workload, args.seed, args.seconds,
                      args.trace == 1, echo=True)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["value"] is None or got["unit"] != m["unit"]:
            log(f"metric {m['name']} missing or with another unit")
            return 1
        metrics[m["name"]] = got
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values),
            "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else float("inf")}


def differ_by(first, second):
    """How far `second` is from `first`, either way, as a share of `first`."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    return abs(second - first) / abs(first)


def sets(args, spec):
    build()
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    problems = []
    out = {"commit": commit(), "seconds": args.seconds, "runs": RUNS,
           "sets": []}
    for s in range(args.sets):
        set_out = {}
        for w in workloads:
            runs, host = [], None
            for r in range(RUNS):
                seed = r + 1
                start = time.monotonic()
                res = run_once(w, seed, args.seconds, False, echo=False)
                host = res["host"]
                log(f"set {s + 1} {w} seed {seed}: "
                    f"{time.monotonic() - start:.1f} s, "
                    f"correct={res['correct']}")
                if not res["correct"]:
                    problems.append(f"{w} seed {seed}: incorrect "
                                    f"{res['messages']}")
                runs.append(res)
            traced = run_once(w, 1, args.seconds, True, echo=False)
            if not traced["correct"]:
                problems.append(f"{w} traced: incorrect {traced['messages']}")
            entry = {"host": host, "end_to_end": {}, "per_layer": {
                m["name"]: traced["metrics"][m["name"]]["value"]
                for m in spec["per_layer"]}}
            for m in metrics:
                values = [r["metrics"][m["name"]]["value"] for r in runs]
                stats = summary(values)
                entry["end_to_end"][m["name"]] = stats
                if stats["spread"] > m["bound"]:
                    problems.append(f"set {s + 1} {w} {m['name']}: spread "
                                    f"{stats['spread']:.4f} > bound "
                                    f"{m['bound']}")
            set_out[w] = entry
        out["sets"].append(set_out)

    print(f"{'workload':14} {'metric':27} {'unit':10} "
          + " ".join(f"{'set' + str(i + 1) + ' median [q1, q3]':>36} "
                     f"{'spread':>7}" for i in range(args.sets))
          + "  bound  sets differ")
    for w in workloads:
        for m in metrics:
            cells = []
            for set_out in out["sets"]:
                st = set_out[w]["end_to_end"][m["name"]]
                cells.append(f"{st['median']:12.6g} [{st['q1']:.6g}, "
                             f"{st['q3']:.6g}]".rjust(36)
                             + f" {st['spread']:7.4f}")
            # Largest per-seed difference between sets, as a share: 0 for
            # simulated metrics of the deterministic workloads.
            runs = [s[w]["end_to_end"][m["name"]]["values"]
                    for s in out["sets"]]
            differ = max(differ_by(r[0], v) for r in zip(*runs) for v in r)
            print(f"{w:14} {m['name']:27} {m['unit']:10} "
                  + " ".join(cells) + f"  {m['bound']:<5}  {differ:.2g}")
            first = out["sets"][0][w]["end_to_end"][m["name"]]["median"]
            for k, set_out in enumerate(out["sets"][1:], start=2):
                later = set_out[w]["end_to_end"][m["name"]]["median"]
                if differ_by(first, later) > m["bound"]:
                    problems.append(f"{w} {m['name']}: set {k} median "
                                    f"{later:.6g} and set 1 median "
                                    f"{first:.6g} differ by more than "
                                    f"{m['bound']}")
    print("\nper-layer (traced run, seed 1, last set):")
    for m in spec["per_layer"]:
        print(f"  {m['name']:38} {m['unit']:9} " + " ".join(
            f"{out['sets'][-1][w]['per_layer'][m['name']]:12.5g}"
            for w in workloads))
    print("  columns: " + ", ".join(workloads))

    out["problems"] = problems
    path = Path(args.out) if args.out else BUILD / "results.json"
    with open(path, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    print(f"\nwrote {path}")
    for p in problems:
        print("PROBLEM:", p)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sets", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        if args.sets > 0:
            return sets(args, spec)
        if not args.workload:
            parser.error("--workload or --sets is required")
        return single(args, spec)
    except (OSError, RuntimeError, subprocess.SubprocessError,
            KeyError, ValueError) as e:
        log(f"benchmark failed: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
