#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, and the held-out seed check.

    python3 perfbench/spread.py --workloads small-lists,churn --seeds 1-10
    python3 perfbench/spread.py --seeds 1-10 --sets 2 --held-out 1009

Runs perfbench/run.py once per (workload, seed) with --trace 0 at
BENCHMARK.json's run_seconds and, for each end-to-end metric, reports the
median, the quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median, against the metric's bound. A spread above its bound
fails; one above a third of its bound is flagged. With --sets 2 the seeds
are run twice, and every metric's second median must not be worse than the
first by more than its bound. With --held-out, that seed is run after the
main seeds and every metric must land within its bound of the first set's
median.

Runs are pooled only when their host facts agree (nproc, arch flags,
compiler): numbers from another machine, such as the 1-core
BENCH_baseline.json, are never compared with these by mistake. Every run's
record is also in .bench_build/perfbench-runs.jsonl.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HOST_KEYS = ("nproc", "arch_flags", "compiler", "build_type")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds += range(int(lo), int(hi) + 1)
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    host = next((json.loads(l[5:]) for l in lines if l.startswith("host ")),
                None)
    if proc.returncode != 0 or host is None:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: run.py exited "
                         f"{proc.returncode}")
    result = json.loads(lines[-1])
    return {"workload": workload, "seed": seed, "host": host,
            "result": result, "wall_s": time.monotonic() - started}


def check_hosts(records):
    facts = {tuple(r["host"][k] for k in HOST_KEYS) for r in records}
    if len(facts) != 1:
        raise SystemExit("refusing to pool runs from different hosts: "
                         + "; ".join(str(dict(zip(HOST_KEYS, f)))
                                     for f in sorted(facts)))
    return dict(zip(HOST_KEYS, facts.pop()))


def summarize(records, metrics):
    rows = {}
    for m in metrics:
        values = [r["result"]["metrics"][m["name"]]["value"] for r in records]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        rows[m["name"]] = (median, q1, q3, spread)
    return rows


def worse_by(metric, first, second):
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first if first else float("inf")
    return change if metric["better"] == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=None,
                        help="comma-separated; default: every workload")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--held-out", type=int, default=None)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]
    seeds = parse_seeds(args.seeds)

    ok = True
    for workload in workloads:
        sets = []
        for _ in range(args.sets):
            records = []
            for seed in seeds:
                rec = run_once(workload, seed, seconds)
                records.append(rec)
                print(f"{workload} seed {seed}: wall {rec['wall_s']:.1f} s "
                      f"loadavg {rec['host']['loadavg'][0]}", file=sys.stderr)
            sets.append(records)
        held = (run_once(workload, args.held_out, seconds)
                if args.held_out is not None else None)
        host = check_hosts(sum(sets, []) + ([held] if held else []))
        print(f"== {workload}: {len(seeds)} seeds {args.seeds} x {args.sets} "
              f"set(s), {seconds} s per run, host {host}")
        summaries = [summarize(records, metrics) for records in sets]
        for m in metrics:
            name, bound = m["name"], m["bound"]
            line = f"  {name:<22}"
            for median, q1, q3, spread in (s[name] for s in summaries):
                if spread > bound:
                    verdict, ok = "FAIL", False
                elif spread > bound / 3:
                    verdict = "wide"
                else:
                    verdict = "ok"
                line += (f"  median {median:10.6g} q1 {q1:10.6g} q3 {q3:10.6g}"
                         f" spread {spread:7.4f}/{bound:.3f} {verdict:<4}")
            first = summaries[0][name][0]
            if len(summaries) == 2:
                drift = worse_by(m, first, summaries[1][name][0])
                agree = drift <= bound
                ok = ok and agree
                line += (f"  set 2 worse by {drift:+.1%} "
                         f"{'ok' if agree else 'FAIL'}")
            if held:
                v = held["result"]["metrics"][name]["value"]
                inside = abs(v - first) <= bound * first
                ok = ok and inside
                line += (f"  seed {args.held_out}: {v:.6g} "
                         f"({(v - first) / first:+.1%}) "
                         f"{'inside' if inside else 'OUTSIDE'}")
            print(line, flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
