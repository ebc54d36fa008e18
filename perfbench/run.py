#!/usr/bin/env python3
"""Runs one benchmark workload against the shipped rabitq_server binary.

    python3 perfbench/run.py --workload small-lists --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Builds the server and the load generator
from source (perfbench/CMakeLists.txt, into .bench_build or
$CARGO_TARGET_DIR), runs perfbench_driver with the workload's parameters
from perfbench/workloads.json, and prints every metric by name with its
unit and sample count. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"} -- the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.

With --trace 1, trace.untraced_search_p50_us is search_p50_us of the same
workload, seed and sources at --trace 0, taken from the runs log
(.bench_build/perfbench-runs.jsonl) or, when the log has none, from an
untraced run made first; trace.overhead_p50_us is the traced run's
search_p50_us minus it.

Exit codes: 0 ok; 1 the correctness gate failed (the result line still
prints, with "correct": false); 2 usage, build or run error; 3 the run is
invalid because the load generator itself fell behind (no result line).
"""

import argparse
import ctypes
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Budget for every driver run of one invocation (a traced run may need an
# untraced one first).
DRIVER_BUDGET_S = 165


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def die(msg, code=2):
    log("perfbench: " + msg)
    sys.exit(code)


def terminate_with_parent():
    """In the driver child: deliver SIGTERM when run.py dies, so a killed
    run.py still stops the driver, which stops its server."""
    PR_SET_PDEATHSIG = 1
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGTERM)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def build(out_dir):
    for needed in ("CMakeLists.txt", "src", "examples/rabitq_server.cpp"):
        if not (ROOT / needed).exists():
            die(f"{needed} is missing: run from the root of a full checkout")
    if shutil.which("cmake") is None:
        die("cmake not found")
    if not (out_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            die("configure failed")
    jobs = str(len(os.sched_getaffinity(0)))
    cmd = ["cmake", "--build", str(out_dir), "-j", jobs, "--target",
           "rabitq_server", "perfbench_driver"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        die("build failed")
    server = out_dir / "rabitq" / "rabitq_server"
    driver = out_dir / "perfbench_driver"
    if not server.exists() or not driver.exists():
        die("build produced no rabitq_server / perfbench_driver")
    return server, driver


def source_digest():
    """sha256 over the sources the benchmark builds and runs."""
    digest = hashlib.sha256()
    roots = [ROOT / "src", ROOT / "cmake", ROOT / "examples", HERE]
    files = [ROOT / "CMakeLists.txt"]
    for r in roots:
        files += [p for p in r.rglob("*") if p.is_file()]
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def host_facts(result, args, trace):
    with open("/proc/loadavg") as f:
        load = [float(x) for x in f.read().split()[:3]]
    arch = [o for o in result["compile_options"].split() if o.startswith("-m")]
    return {
        "nproc": result["nproc"],
        "arch_flags": " ".join(arch) or "(portable baseline)",
        "compiler": result["compiler"],
        "build_type": result["build_type"],
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": trace,
        "loadavg": load,
    }


def run_driver(driver, server, out_dir, params, args, trace, trace_out,
               deadline):
    """Runs perfbench_driver once and returns its parsed result line."""
    work_dir = out_dir / "work" / f"{args.workload}-{os.getpid()}-{trace}"
    cmd = [str(driver), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace), "--server", str(server),
           "--work-dir", str(work_dir), "--trace-out", str(trace_out)]
    for key, value in params.items():
        cmd += ["--" + key, str(value)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            preexec_fn=terminate_with_parent)
    try:
        stdout, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.terminate()
        try:
            proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
        shutil.rmtree(work_dir, ignore_errors=True)
        die(f"driver runs exceeded {DRIVER_BUDGET_S} s")
    shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0:
        die(f"driver exited with {proc.returncode}")
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        die("driver printed no result")
    return json.loads(lines[-1])


def metric_value(result, name):
    return next(m["value"] for m in result["metrics"] if m["name"] == name)


def record_run(runs_log, facts, result):
    with open(runs_log, "a") as f:
        f.write(json.dumps({"host": facts, "result": result},
                           sort_keys=True) + "\n")


def find_untraced(runs_log, args):
    """search_p50_us of the latest --trace 0 run of this workload, seed,
    --seconds and sources in the runs log, or None."""
    if not runs_log.exists():
        return None
    digest = source_digest()
    found = None
    with open(runs_log) as f:
        for line in f:
            try:
                record = json.loads(line)
                host = record["host"]
                if (host["trace"] == 0 and host["workload"] == args.workload
                        and host["seed"] == args.seed
                        and host["seconds"] == args.seconds
                        and host["source_digest"] == digest):
                    found = metric_value(record["result"], "search_p50_us")
            except (ValueError, KeyError, StopIteration):
                continue
    return found


def check_generator(result):
    """Exits 3 when the load generator fell behind its schedule in the
    windows the figures come from (the driver's verdict)."""
    sends = result["gen_lag_samples"]
    late_share = result["late_sends"] / sends if sends else 0.0
    gen_lag_p50 = result["gen_lag_p50_us"] or 0.0
    if not result["generator_ok"]:
        die(f"run invalid: the load generator fell behind its schedule "
            f"(lag p50 {gen_lag_p50:.0f} us, {late_share:.1%} of sends late)",
            code=3)


def load_json(path, what):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read {what} ({path}): {e}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench = load_json(ROOT / "BENCHMARK.json", "BENCHMARK.json")
    spec = load_json(HERE / "workloads.json", "workload table")
    if args.workload not in spec["workloads"]:
        die(f"unknown workload {args.workload!r}; "
            f"known: {', '.join(spec['workloads'])}")
    if args.seconds <= 0:
        die("--seconds must be positive")
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    out_dir = build_dir()
    server, driver = build(out_dir)

    params = spec["workloads"][args.workload]
    trace_dir = out_dir / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_out = trace_dir / f"{args.workload}-seed{args.seed}.jsonl"
    started = time.monotonic()
    deadline = started + DRIVER_BUDGET_S
    runs_log = out_dir / "perfbench-runs.jsonl"

    if args.trace:
        untraced = find_untraced(runs_log, args)
        if untraced is None:
            log("perfbench: no --trace 0 record of this workload, seed and "
                "sources; running it first")
            first = run_driver(driver, server, out_dir, params, args, 0,
                               trace_out, deadline)
            record_run(runs_log, host_facts(first, args, trace=0), first)
            check_generator(first)
            untraced = metric_value(first, "search_p50_us")

    result = run_driver(driver, server, out_dir, params, args, args.trace,
                        trace_out, deadline)
    elapsed = time.monotonic() - started
    if args.trace:
        traced = metric_value(result, "trace.search_p50_us")
        result["metrics"].append({
            "name": "trace.untraced_search_p50_us", "value": untraced,
            "unit": "us", "n": 1,
            "note": "search_p50_us of the same seed's --trace 0 run"})
        overhead = (None if traced is None or untraced is None
                    else traced - untraced)
        result["metrics"].append({
            "name": "trace.overhead_p50_us", "value": overhead,
            "unit": "us", "n": 1,
            "note": "traced - untraced search_p50_us: no span is recorded in "
                    "the timed windows, so this is run-to-run noise"})

    facts = host_facts(result, args, args.trace)
    metrics = {m["name"]: m for m in result["metrics"]}
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        die("driver did not report: " + ", ".join(missing))

    print(f"host {json.dumps(facts, sort_keys=True)}")
    print(f"run workload={args.workload} seed={args.seed} "
          f"trace={args.trace} seconds={args.seconds} wall_s={elapsed:.1f} "
          f"connections={result['connections']}")
    # Every metric the driver measured, gated in BENCHMARK.json or not.
    for m in result["metrics"]:
        value = m["value"]
        shown = "inf" if value is None else f"{value:.6g}"
        print(f"  {m['name']:<32} {shown:>14} {m['unit']:<6} "
              f"n={m['n']:<9} {m['note']}")
    attempted = result["attempted"]
    failed = result["failed"]
    print(f"  {'failed_ratio':<32} {failed / max(1, attempted):>14.6g} ratio  "
          f"n={attempted:<9} failed or refused operations / attempted, "
          f"all phases")
    print(f"  generator: gen_lag_p50_us={result['gen_lag_p50_us']} "
          f"gen_lag_p99_us={result['gen_lag_p99_us']} "
          f"(n={result['gen_lag_samples']}) late_sends={result['late_sends']} "
          f"backlogged_sends={result['backlogged_sends']}")
    gate = result["gate"]
    print(f"  gate: ok={gate['ok']} exhaustive probes={gate['checked']} "
          f"mismatched={gate['mismatched']} recall={gate['recall']:.4f} "
          f"floor={gate['recall_floor']}"
          + (f" first: {gate['first_mismatch']}" if gate["first_mismatch"]
             else ""))
    if args.trace:
        print("  self time per layer (mean us per span):")
        for name, us in sorted(result["self_time_us"].items()):
            print(f"    {name:<28} {us:12.3f}")
        search = metrics["index.search_p50_us"]["value"]
        prepare = metrics["core.query_prepare_us"]["value"]
        if search:
            print(f"  split: core.query_prepare_us is {100 * prepare / search:.1f}% "
                  f"of index.search_p50_us")
        print(f"  trace file: {trace_out.relative_to(ROOT)}")

    record_run(runs_log, facts, result)
    check_generator(result)

    final = {"correct": bool(gate["ok"]), "attempted": attempted,
             "failed": failed, "metrics": {}}
    for m in wanted:
        value = metrics[m["name"]]["value"]
        final["metrics"][m["name"]] = {
            "value": math.inf if value is None else value, "unit": m["unit"]}
    print(json.dumps(final))
    sys.exit(0 if gate["ok"] else 1)


if __name__ == "__main__":
    main()
