#!/usr/bin/env python3
"""Checks of the benchmark itself.

    python3 perfbench/tests/test_bench.py

Run from the root of a checkout (it builds into .bench_build or
$CARGO_TARGET_DIR, like perfbench/run.py):

1. gate_test: the correctness gate passes an exhaustive index search and
   fails on corrupted neighbor lists, a live set that missed a write, and a
   recall below its floor.
2. Smoke: a short run with --trace 0 and with --trace 1 prints every metric
   of BENCHMARK.json (plus the end-to-end metrics it does not gate) with a
   unit and a sample count, and ends with the contract's result line.
3. In a directory holding only BENCHMARK.json and perfbench/, the command
   exits non-zero without printing a result.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
ROOT = BENCH_DIR.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Printed by every --trace 0 run but not gated in BENCHMARK.json.
PRINTED_ONLY = ["search_p99_us", "loaded_p99_us", "write_p50_us",
                "write_p99_us", "failed_ratio"]

failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def run_bench(cwd, trace, seconds="2"):
    cmd = [sys.executable, "perfbench/run.py", "--workload", "small-lists",
           "--seed", "3", "--seconds", seconds, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def test_gate():
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        # run.py configures the build directory on first use.
        run_bench(ROOT, 0, seconds="1")
    built = subprocess.run(["cmake", "--build", str(out), "--target",
                            "perfbench_gate_test"], capture_output=True,
                           text=True)
    check(built.returncode == 0, "perfbench_gate_test builds")
    gate = subprocess.run([str(out / "perfbench_gate_test")],
                          capture_output=True, text=True)
    sys.stderr.write(gate.stderr)
    check(gate.returncode == 0, "gate_test: gate fails on corrupted results")


def metric_line(stdout, name):
    """The printed line of `name`: value, unit and n=<count>."""
    pattern = re.compile(r"^\s+" + re.escape(name) +
                         r"\s+(\S+)\s+(\S+)\s+n=(\d+)", re.M)
    return pattern.search(stdout)


def test_smoke(trace):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    proc = run_bench(ROOT, trace)
    check(proc.returncode == 0, f"--trace {trace} run exits 0")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-3000:])
        return
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    check(set(result) == RESULT_KEYS, f"--trace {trace}: result line keys")
    check(result["correct"] is True, f"--trace {trace}: gate passed")
    check(result["attempted"] >= 1, f"--trace {trace}: attempted >= 1")
    check(set(result["metrics"]) == {m["name"] for m in wanted},
          f"--trace {trace}: result carries exactly the BENCHMARK.json metrics")
    names = [m["name"] for m in wanted] + ([] if trace else PRINTED_ONLY)
    for name in names:
        m = metric_line(proc.stdout, name)
        check(m is not None and m.group(2) != "" and int(m.group(3)) >= 0,
              f"--trace {trace}: {name} printed with unit and sample count")
    for m in wanted:
        got = result["metrics"][m["name"]]
        check(got["unit"] == m["unit"] and
              isinstance(got["value"], (int, float)),
              f"--trace {trace}: {m['name']} value and unit in result line")
    check(proc.stdout.startswith("host {"), f"--trace {trace}: host facts")


def test_stripped_checkout():
    stripped = build_dir() / "stripped-checkout"
    shutil.rmtree(stripped, ignore_errors=True)
    stripped.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", stripped / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, stripped / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-lists",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=stripped, capture_output=True, text=True, timeout=180, env=env)
    shutil.rmtree(stripped, ignore_errors=True)
    check(proc.returncode != 0, "stripped checkout: exits non-zero")
    check(proc.stdout.strip() == "", "stripped checkout: prints no result")


if __name__ == "__main__":
    test_gate()
    test_smoke(0)
    test_smoke(1)
    test_stripped_checkout()
    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)
