#!/usr/bin/env python3
"""Benchmark for wittkit, run from the root of a source checkout.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S
    python3 bench/run.py --quick

A timed run (``--trace 0``) imports wittkit from ``src/``, builds the
workload's seeded inputs, then calls wittkit closed-loop, one item at a
time, in whole rounds of the same items: as many rounds as come closest to
``--seconds`` at the reference round time.  Every timed step is scaled to
the reference host's speed by ``hostspeed``'s probes around it.
Afterwards it checks every answer independently and prints, as its last
line, one JSON object with the end-to-end metrics.  A traced run
(``--trace 1``) runs one warm-up round and one untraced baseline round,
then one round with spans installed around wittkit's public functions, and
prints the per-layer metrics instead.  ``--workload all`` runs every
workload in its own process and prints a summary line for each;
``--quick`` runs the checkers' self-tests and a small slice of every
workload, untraced and traced, as a smoke test.  Detailed results and traces go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("roundtrip", "knot_ladder", "lt_signatures", "finite_oracle")
IMPORT_REPEATS = 21
BUILD_REPEATS = 5
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import wittkit.cli\n"
    "print(time.perf_counter() - t)\n"
)
MAX_REPORTED_ERRORS = 20


def load_wittkit():
    """Import wittkit from this checkout's sources, never from elsewhere."""
    if not (SRC / "wittkit" / "__init__.py").is_file():
        sys.exit(f"bench: no wittkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import wittkit

    if not Path(wittkit.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"bench: imported wittkit from {wittkit.__file__}, "
                 f"not from {SRC}")


def pin_to_one_cpu() -> None:
    """Keep this process, and the interpreters it starts, on one CPU, so
    that the host-speed probes time the CPU the work runs on.  Where
    affinity cannot be set, the run goes on unpinned."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except OSError as exc:
        print(f"bench: not pinned to one CPU: {exc}", file=sys.stderr)


def import_seconds() -> float:
    """Median time, at the reference host's speed, for a fresh interpreter
    to import wittkit's CLI; one untimed import first writes the bytecode
    caches."""
    cmd = [sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC)]
    subprocess.run(cmd, check=True, capture_output=True, timeout=120)
    # the import is timed inside the child; the probes around it run here,
    # on the same CPU, while the child is not running
    timer = hostspeed.Corrector()
    times = []
    for _ in range(IMPORT_REPEATS):
        timer.sample()
        timer.start_item()
        done = subprocess.run(cmd, check=True, capture_output=True,
                              text=True, timeout=120)
        timer.end_item()
        times.append(float(done.stdout))
    timer.sample()
    return statistics.median(t * f for t, f in zip(times, timer.factors()))


def build(name: str, seed: int, quick: bool = False):
    """(items, median build seconds at the reference host's speed) over
    BUILD_REPEATS builds."""
    import workloads

    timer = hostspeed.Corrector()
    for _ in range(BUILD_REPEATS):
        timer.sample()
        timer.start_item()
        items = workloads.BUILDERS[name](seed, quick)
        timer.end_item()
    timer.sample()
    return items, statistics.median(timer.scaled())


def run_round(items, outputs: list, timer=None, recorder=None) -> None:
    """Call every item once, in order, each waiting for the last; a
    ``hostspeed.Corrector`` given as `timer` times each item."""
    for idx, item in enumerate(items):
        if timer is not None:
            timer.start_item()
        try:
            if recorder is None:
                out = item.run()
            else:
                with recorder.span(spans.ITEM_SPAN):
                    out = item.run()
            err = None
        except Exception as exc:  # noqa: BLE001 - counted as a failed item
            out, err = None, exc
        if timer is not None:
            timer.end_item()
        outputs.append((idx, out, err))


def check_outputs(items, outputs) -> tuple:
    """(failed, wrong, messages): an item fails when it raised or when any
    of its checks rejects its answer; wrong counts the latter."""
    failed = wrong = 0
    messages = []
    verdicts = {}
    for idx, out, err in outputs:
        item = items[idx]
        if err is not None:
            failed += 1
            messages.append(f"{item.label}: raised {err!r}")
            continue
        key = (idx, repr(out))
        if key not in verdicts:
            try:
                verdicts[key] = item.check(out)
            except Exception as exc:  # noqa: BLE001 - malformed answer
                verdicts[key] = [f"check raised {exc!r}"]
        if verdicts[key]:
            failed += 1
            wrong += 1
            messages += [f"{item.label}: {e}" for e in verdicts[key]]
    return failed, wrong, messages


def quartiles(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (values[0],) * 3
    out = {"n": len(values), "q1": q1, "median": q2, "q3": q3}
    if len(values) >= 100:
        out["p90"] = statistics.quantiles(values, n=10)[-1]
    return out


def report_errors(messages) -> None:
    for msg in messages[:MAX_REPORTED_ERRORS]:
        print(f"bench: FAIL {msg}", file=sys.stderr)
    if len(messages) > MAX_REPORTED_ERRORS:
        print(f"bench: ... {len(messages) - MAX_REPORTED_ERRORS} more",
              file=sys.stderr)


def write_out(name: str, doc: dict) -> None:
    OUT.mkdir(exist_ok=True)
    with open(OUT / name, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)


def timed_run(workload: str, seed: int, seconds: float) -> dict:
    load_wittkit()
    pin_to_one_cpu()
    t_import = import_seconds()
    items, t_build = build(workload, seed)
    gc.collect()
    import workloads

    rounds = max(1, round(seconds / workloads.ROUND_SECONDS[workload]))
    outputs = []
    timer = hostspeed.Corrector()
    start = time.perf_counter()
    with timer.sampling():
        for _ in range(rounds):
            run_round(items, outputs, timer)
    elapsed = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, wrong, messages = check_outputs(items, outputs)
    report_errors(messages)
    durations, raw = timer.scaled(), timer.raw()
    metrics = {
        "setup_s": {"value": t_import + t_build, "unit": "s"},
        "items_per_s": {"value": len(durations) / sum(durations),
                        "unit": "1/s"},
        "item_p50_s": {"value": statistics.median(durations), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    per_item = {}
    for (idx, _, _), d in zip(outputs, durations):
        per_item.setdefault(items[idx].label, []).append(d)
    write_out(f"{workload}-seed{seed}.json", {
        "workload": workload, "seed": seed, "seconds": seconds,
        "rounds": rounds, "items_per_round": len(items),
        "elapsed_s": elapsed, "import_s": t_import, "build_s": t_build,
        "cpus": sorted(os.sched_getaffinity(0)),
        "item_s": quartiles(durations),
        "raw_item_s": quartiles(raw),
        "raw_items_per_s": len(raw) / sum(raw),
        "probe_s": quartiles(timer.probes),
        "per_item_median_s": {k: statistics.median(v)
                              for k, v in per_item.items()},
        "metrics": metrics, "failed": failed, "wrong": wrong,
    })
    return {"correct": wrong == 0, "attempted": len(outputs),
            "failed": failed, "metrics": metrics}


def traced_run(workload: str, seed: int) -> dict:
    load_wittkit()
    import workloads

    items, _ = build(workload, seed)
    # the warm-up round fills wittkit's caches, so the baseline and traced
    # rounds do the same work and the call counts repeat exactly
    run_round(items, [])
    gc.collect()
    t0 = time.perf_counter()
    run_round(items, [])
    base_s = time.perf_counter() - t0
    recorder = spans.Recorder()
    patches = spans.install(recorder, [workloads])
    outputs = []
    try:
        gc.collect()
        t0 = time.perf_counter()
        run_round(items, outputs, recorder=recorder)
        traced_s = time.perf_counter() - t0
    finally:
        spans.uninstall(patches)
    failed, wrong, messages = check_outputs(items, outputs)
    report_errors(messages)
    layers = recorder.summary()
    empty = {"calls": 0, "self_s": 0.0}
    metrics = {}
    for span, field in spans.METRICS:
        value = layers.get(span, empty)[field]
        metrics[f"{span}.{field}"] = {
            "value": value, "unit": "count" if field == "calls" else "s"}
    item_s = layers.get(spans.ITEM_SPAN, {"total_s": 0.0})["total_s"]
    overhead = traced_s / base_s - 1
    print(f"bench: {workload} traced round {traced_s:.3f} s, untraced "
          f"{base_s:.3f} s, overhead {100 * overhead:+.1f}%, "
          f"{len(recorder.start)} spans", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    recorder.write(OUT / f"trace-{workload}-seed{seed}.json")
    write_out(f"{workload}-seed{seed}-trace.json", {
        "workload": workload, "seed": seed,
        "untraced_round_s": base_s, "traced_round_s": traced_s,
        "overhead": overhead, "spans": len(recorder.start),
        "layers": {name: dict(row, share=row["self_s"] / item_s)
                   for name, row in sorted(layers.items())},
        "metrics": metrics, "failed": failed, "wrong": wrong,
    })
    return {"correct": wrong == 0, "attempted": len(outputs),
            "failed": failed, "metrics": metrics}


def run_one(workload: str, seed: int, seconds: float) -> dict:
    """The result of one untraced run in a fresh process, whose standard
    error passes through; RuntimeError when it printed no result."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exited with code "
                           f"{done.returncode}")
    return json.loads(lines[-1])


def run_all(seed: int, seconds: float) -> int:
    """Each workload in its own process; one summary line per workload."""
    status = 0
    for workload in WORKLOADS:
        try:
            result = run_one(workload, seed, seconds)
        except RuntimeError as exc:
            print(exc)
            status = 1
            continue
        metrics = ", ".join(f"{k} {v['value']:.4g} {v['unit']}"
                            for k, v in result["metrics"].items())
        print(f"{workload}: {metrics}; attempted {result['attempted']}, "
              f"failed {result['failed']}, correct "
              f"{str(result['correct']).lower()}")
        if result["failed"] or not result["correct"]:
            status = 1
    return status


def quick() -> int:
    """The checkers' self-tests, then every workload on a small slice,
    untraced and traced."""
    load_wittkit()
    import selftest
    import workloads

    status = selftest.main()
    for workload in WORKLOADS:
        t0 = time.perf_counter()
        items, _ = build(workload, 0, quick=True)
        outputs = []
        run_round(items, outputs)
        recorder = spans.Recorder()
        patches = spans.install(recorder, [workloads])
        try:
            run_round(items, outputs, recorder=recorder)
        finally:
            spans.uninstall(patches)
        failed, _, messages = check_outputs(items, outputs)
        report_errors(messages)
        print(f"{workload}: {len(outputs)} items, {failed} failed, "
              f"{len(recorder.start)} spans, "
              f"{time.perf_counter() - t0:.2f} s")
        status |= bool(failed)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    if args.quick:
        return quick()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.trace:
        result = traced_run(args.workload, args.seed)
    else:
        result = timed_run(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
