#!/usr/bin/env python3
"""Perf-regression gate over the bench trajectory anchors.

Compares fresh smoke runs of the benches (--quick --json) against their
committed repo-root BENCH_*.json anchors: for every configuration present
in both, the smoke value of the gate's metric (batched tuples/sec for
bench/sim_throughput, simulated queries/sec for the workload benches,
SIMD-kernel tuples/sec and speedup over scalar for bench/simd_kernels)
must stay above ``min_ratio`` times the anchor value. The tolerance is
deliberately generous (default 0.5x) because the smoke run is smaller
than the anchor run and CI machines differ from the machine that
recorded the anchor; the gate exists to catch order-of-magnitude
regressions (an accidentally-scalar hot loop, a per-tuple hierarchy walk
creeping back), not single-digit-percent noise.

Two invocation forms:

  Multiple gates in one run (what ci/check.sh uses)::

      perf_gate.py --min-ratio 0.5 \\
          --gate ANCHOR:SMOKE[:METRIC] [--gate ...]

  Single gate (backward compatible)::

      perf_gate.py --anchor A --smoke S [--metric M] [--min-ratio R]

METRIC defaults to tuples_per_sec_batched either way. SMOKE may list
several comma-separated artifacts of repeated runs of one bench; the gate
then judges each config's median across them, so one run in a slow mode
of a bimodal wall-clock bench does not fail it on its own.

Exit status: 0 = all gates pass, 1 = regression, 2 = usage/input error.
Wired as an opt-out step in ci/check.sh (NIPO_PERF_GATE=0 skips).
"""

import argparse
import json
import statistics
import sys

DEFAULT_METRIC = "tuples_per_sec_batched"


def load_configs(path, metric):
    """Returns {config name: metric value} from a bench artifact."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"perf_gate: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)
    configs = {}
    for entry in doc.get("configs", []):
        name = entry.get("name")
        rate = entry.get(metric)
        # A config without a positive rate is an input error, not a skip:
        # silently narrowing coverage is how a gate rots.
        if name is None or not rate or float(rate) <= 0:
            print(f"perf_gate: config {name!r} in {path} has no positive "
                  f"{metric} ({rate!r})", file=sys.stderr)
            sys.exit(2)
        configs[name] = float(rate)
    if not configs:
        print(f"perf_gate: no configs in {path}", file=sys.stderr)
        sys.exit(2)
    return configs


def format_rate(value):
    """Human scaling: raw below 1M (queries/sec), Mega above (tuples/sec)."""
    if value >= 1e6:
        return f"{value / 1e6:8.1f}M"
    return f"{value:8.1f} "


def check_same_configs(anchor_path, anchor, smoke_path, smoke):
    """Exits 2 unless both artifacts hold the same config names."""
    mismatched = sorted(set(anchor) ^ set(smoke))
    if mismatched:
        # Renaming/adding/removing a bench config must come with a
        # regenerated anchor; skipping the stragglers would let exactly
        # the config-went-missing regressions through.
        print(f"perf_gate: config sets of {anchor_path} and {smoke_path} "
              f"differ ({', '.join(mismatched)}); regenerate the committed "
              f"anchor with a full --json run", file=sys.stderr)
        sys.exit(2)


def run_gate(anchor_path, smoke_paths, metric, min_ratio):
    """Runs one (anchor, smokes, metric) gate; returns the failure count.

    Each config's smoke value is its median over the smoke artifacts.
    """
    anchor = load_configs(anchor_path, metric)
    runs = []
    for smoke_path in smoke_paths:
        run = load_configs(smoke_path, metric)
        check_same_configs(anchor_path, anchor, smoke_path, run)
        runs.append(run)
    smoke = {name: statistics.median(run[name] for run in runs)
             for name in anchor}
    label = "smoke" if len(runs) == 1 else f"median of {len(runs)}"

    failures = 0
    width = max(len(name) for name in anchor)
    for name in sorted(anchor):
        ratio = smoke[name] / anchor[name]
        verdict = "ok" if ratio >= min_ratio else "REGRESSION"
        if verdict != "ok":
            failures += 1
        print(f"perf_gate: {name:<{width}}  "
              f"anchor {format_rate(anchor[name])}  "
              f"{label} {format_rate(smoke[name])}  "
              f"ratio {ratio:5.2f}  {verdict}")
    return failures, len(anchor)


def parse_gate_spec(spec):
    """Splits ANCHOR:SMOKE[,SMOKE...][:METRIC] into its parts."""
    parts = spec.split(":")
    if len(parts) in (2, 3) and all(parts[1].split(",")):
        metric = parts[2] if len(parts) == 3 else DEFAULT_METRIC
        return parts[0], parts[1].split(","), metric
    print(f"perf_gate: bad --gate spec {spec!r} "
          f"(want ANCHOR:SMOKE[,SMOKE...][:METRIC])", file=sys.stderr)
    sys.exit(2)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--gate", action="append", default=[],
                        metavar="ANCHOR:SMOKE[,SMOKE...][:METRIC]",
                        help="one (anchor, smoke, metric) comparison, "
                             "judged on the per-config median of the "
                             "smokes; repeatable")
    parser.add_argument("--anchor", help="committed BENCH_*.json "
                        "(single-gate form)")
    parser.add_argument("--smoke", help="fresh smoke-run artifact to judge "
                        "(single-gate form)")
    parser.add_argument("--metric", default=DEFAULT_METRIC,
                        help="per-config JSON field of the single-gate form "
                             "(default: %(default)s)")
    parser.add_argument("--min-ratio", type=float, default=0.5,
                        help="fail below this smoke/anchor ratio, applied to "
                             "every gate (default: %(default)s)")
    args = parser.parse_args()

    gates = [parse_gate_spec(spec) for spec in args.gate]
    if args.anchor or args.smoke:
        if not (args.anchor and args.smoke):
            print("perf_gate: --anchor and --smoke go together",
                  file=sys.stderr)
            sys.exit(2)
        gates.append((args.anchor, [args.smoke], args.metric))
    if not gates:
        print("perf_gate: no gates given (use --gate or --anchor/--smoke)",
              file=sys.stderr)
        sys.exit(2)

    failures = 0
    total = 0
    for anchor_path, smoke_paths, metric in gates:
        gate_failures, gate_total = run_gate(anchor_path, smoke_paths, metric,
                                             args.min_ratio)
        failures += gate_failures
        total += gate_total
    if failures:
        print(f"perf_gate: FAIL — {failures}/{total} configs below "
              f"{args.min_ratio}x of their committed anchors",
              file=sys.stderr)
        sys.exit(1)
    print(f"perf_gate: PASS — {total} configs across {len(gates)} gate(s) "
          f"at >= {args.min_ratio}x of the committed anchors")


if __name__ == "__main__":
    main()
