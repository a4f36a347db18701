#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, and the drift between two
sets of runs of the same code.

    python3 bench/spread.py --workload NAME [--seeds 10] [--first-seed 1]
                            [--seconds 12]

Runs ``run.py`` twice per seed, once for each of two sets, each run in its
own process, one after another; the sets take turns going first from one
seed to the next.  For each set and metric it prints the median, the
quartiles and the distance between the quartiles as a share of the median,
then how much worse each metric's median is in the second set than in the
first, beside the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import run

SETS = 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=run.WORKLOADS, required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12)
    args = parser.parse_args(argv)
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    values = [{} for _ in range(SETS)]
    shares = [set() for _ in range(SETS)]
    for k, seed in enumerate(range(args.first_seed,
                                   args.first_seed + args.seeds)):
        for s in range(SETS):
            s = (s + k) % SETS
            try:
                result = run.run_one(args.workload, seed, args.seconds)
            except RuntimeError as exc:
                print(exc)
                return 1
            shares[s].add(result["failed"] / result["attempted"])
            line = ", ".join(f"{name} {v['value']:.6g}"
                             for name, v in result["metrics"].items())
            print(f"set {s + 1} seed {seed}: attempted {result['attempted']},"
                  f" failed {result['failed']}, correct {result['correct']}:"
                  f" {line}", flush=True)
            for name, v in result["metrics"].items():
                values[s].setdefault(name, []).append(v["value"])
    medians = []
    for s, by_metric in enumerate(values):
        medians.append({})
        for name, vs in by_metric.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            medians[s][name] = med
            print(f"set {s + 1} {name}: median {med:.6g}, q1 {q1:.6g}, "
                  f"q3 {q3:.6g}, spread {100 * (q3 - q1) / med:.1f}% "
                  f"(bound {100 * spec[name]['bound']:g}%)")
        print(f"set {s + 1} failed/attempted: {sorted(shares[s])}")
    for name, med in medians[1].items():
        first = medians[0][name]
        worse = (med - first) / first
        if spec[name]["better"] == "higher":
            worse = -worse
        print(f"set 2 vs set 1 {name}: median {med:.6g} vs {first:.6g}, "
              f"worse by {100 * worse:+.1f}% "
              f"(bound {100 * spec[name]['bound']:g}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
