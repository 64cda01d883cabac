#!/usr/bin/env python3
"""Record BENCH_<pr>.json: paired benchmark runs of two revisions.

    python3 bench_record.py --out BENCH_32.json [--base HEAD~1] [--change HEAD]

Each revision is exported with `git archive` into a fresh directory, where
`perfbench/run.py --trace 0` runs unchanged.  Every workload of
BENCHMARK.json runs at that file's `run_seconds`, in PAIRS pairs: pair k
runs both revisions with seed k, the base first in odd pairs and the change
first in even ones, so that drift of the machine falls on both sides alike.

Per workload and end-to-end metric, the file holds each side's median and
quartiles, the spread between the quartiles (IQR) and how many pairs the
change wins; ties count for neither side.  Per run it holds `correct`,
`failed` and the pass count.  Once per file it holds both commits, nproc,
the BLAS thread count from run.py's `# env` line, and the values of the
`MALLOC_*` and `PYTHONDONTWRITEBYTECODE` variables found in the environment,
which the recorder passes on as they are and never sets.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.abspath(__file__))
PAIRS = 10
RUN_TIMEOUT_S = 1800.0


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          check=True).stdout


def export(commit: str, dest: str) -> None:
    """The committed files of `commit` under `dest`."""
    os.makedirs(dest)
    subprocess.run(["tar", "-x", "-C", dest], input=git("archive", commit), check=True)


def parse_run(stdout: str) -> dict:
    """The result of one `run.py --trace 0`: its last line, the pass count and
    the `# env` line."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    env, passes = {}, None
    for line in lines[:-1]:
        if line.startswith("# env "):
            env = json.loads(line[len("# env "):])
        elif line.startswith("# passes: "):
            passes = int(line[len("# passes: "):])
    return {"correct": result["correct"], "failed": result["failed"],
            "attempted": result["attempted"], "passes": passes,
            "metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "env": env}


def spread(values: list[float]) -> dict:
    """Median, quartiles and IQR of one side's runs."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarise(runs: list[dict], benchmark: dict) -> dict:
    """Per workload: the runs, and per end-to-end metric both sides' spread
    and the pairs the change wins.  Each run carries `workload`, `pair` and
    `side` ("base" or "change") beside what `parse_run` returns."""
    out = {}
    for wl in benchmark["workloads"]:
        name = wl["name"]
        mine = [r for r in runs if r["workload"] == name]
        pairs = sorted({r["pair"] for r in mine})
        side = {(r["pair"], r["side"]): r for r in mine}
        # Pairs in which both runs finished and reported their metrics.
        complete = [p for p in pairs
                    if all("metrics" in side.get((p, s), {}) for s in ("base", "change"))]
        metrics = {}
        for m in benchmark["end_to_end"]:
            sign = 1.0 if m["better"] == "lower" else -1.0
            entry = {"unit": m["unit"], "better": m["better"], "bound": m["bound"]}
            for which in ("base", "change"):
                values = [r["metrics"][m["name"]] for r in mine
                          if r["side"] == which and "metrics" in r]
                entry[which] = spread(values) if values else None
            both = [(side[p, "base"]["metrics"][m["name"]],
                     side[p, "change"]["metrics"][m["name"]]) for p in complete]
            entry["pairs"] = len(both)
            entry["change_wins"] = sum(sign * (c - b) < 0 for b, c in both)
            entry["base_wins"] = sum(sign * (c - b) > 0 for b, c in both)
            metrics[m["name"]] = entry
        out[name] = {"metrics": metrics,
                     "runs": [{k: r[k] for k in ("pair", "seed", "side", "correct",
                                                 "failed", "attempted", "passes", "metrics",
                                                 "error") if k in r} for r in mine]}
    return out


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        return {"correct": False, "failed": None, "attempted": None, "passes": None,
                "error": tail[0]}
    return parse_run(proc.stdout)


def recorded_environment(first: dict) -> dict:
    env = {key: value for key, value in sorted(os.environ.items())
           if key.startswith("MALLOC_") or key == "PYTHONDONTWRITEBYTECODE"}
    return {"nproc": os.cpu_count(), "blas_threads": first.get("blas_threads"),
            "variables": env}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD~1")
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    commits = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
               for side, rev in (("base", args.base), ("change", args.change))}
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench_record-") as tmp:
        trees = {}
        for side, commit in commits.items():
            trees[side] = os.path.join(tmp, side)
            export(commit, trees[side])
        for pair in range(1, PAIRS + 1):
            order = ("base", "change") if pair % 2 else ("change", "base")
            for wl in benchmark["workloads"]:
                for side in order:
                    run = run_once(trees[side], wl["name"], pair, benchmark["run_seconds"])
                    run.update(workload=wl["name"], pair=pair, seed=pair, side=side)
                    runs.append(run)
                    print(f"pair {pair} {wl['name']} {side}: correct={run['correct']} "
                          f"failed={run['failed']}", file=sys.stderr, flush=True)
    first_env = next((r["env"] for r in runs if r.get("env")), {})
    record = {"commits": commits, "revisions": {"base": args.base, "change": args.change},
              "environment": recorded_environment(first_env),
              "run_seconds": benchmark["run_seconds"], "pairs": PAIRS,
              "workloads": summarise(runs, benchmark)}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
