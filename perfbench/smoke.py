#!/usr/bin/env python3
"""Smoke run of the benchmark: every workload once untraced, once traced.

    python3 perfbench/smoke.py

Each run uses `--seconds 1`, so it makes only the workload's minimum number
of passes (about 3 minutes in all).  The smoke run checks that
- every end-to-end and per-layer metric of BENCHMARK.json is in the result
  line with its unit, and no other metric is;
- `error_rate`, `latency_p50_ms`, `latency_tail_ms` and, for
  transfer-sweep, `points_per_s` are printed with their units on `#` lines;
- every operation passed its check, so `error_rate` is 0.
Exit code 0 when all holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("cli-session", "transfer-sweep", "full-dynamics")


def check_run(workload: str, trace: int, spec: dict) -> list[str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}: {proc.stderr.strip()[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = result["metrics"]
    for name, unit in units.items():
        if name not in got:
            problems.append(f"{where}: metric {name} missing")
        elif got[name]["unit"] != unit:
            problems.append(f"{where}: {name} in {got[name]['unit']}, want {unit}")
    for name in set(got) - set(units):
        problems.append(f"{where}: metric {name} not in BENCHMARK.json")
    printed = ["error_rate"]
    if not trace:
        printed += ["latency_p50_ms", "latency_tail_ms"]
        if workload == "transfer-sweep":
            printed.append("points_per_s")
    for name in printed:
        if not any(line.startswith(f"# {name} = ") for line in lines):
            problems.append(f"{where}: {name} not printed")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: {result['failed']} of {result['attempted']} "
                        "operations failed: "
                        + "; ".join(l for l in lines if l.startswith("# FAILED")))
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            found = check_run(workload, trace, spec)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}",
                  flush=True)
            problems += found
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
