#!/usr/bin/env python3
"""thermoneuron benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload cli-session --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; the package is imported from
`src/`.  With `--trace 0` the last line of stdout holds the end-to-end
metrics, measured with tracing off.  With `--trace 1` it holds the
per-layer metrics of a separate traced replay.  The lines before it, all
starting with `#`, repeat every metric with its unit and add the figures
that BENCHMARK.json does not bound: latency percentiles with their sample
counts, error rate, transfer points per second, full-vs-quasi gaps and the
environment.  Each run also writes its full record under `.perfbench_out/`.

Workloads, metrics and the reasons for both are described in README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

# One BLAS thread everywhere, in this process and in every child, and no
# internal thread pool in the package.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
UNSET_ENV = ("THERMONEURON_THREADS",)

SETUP_REPEATS = 7         # fresh interpreters timed for setup_s; median reported
IMPORT_REPEATS = 3        # fresh interpreters timed for cli.import_s
TAIL_MIN_BEYOND = 10      # samples the tail percentile must leave above it
PASS_BUDGET_S = 140.0     # start no pass that would likely end after this
CHILD_TIMEOUT_S = 120.0


def pin_environment() -> None:
    os.environ.update(PINNED_ENV)
    for key in UNSET_ENV:
        os.environ.pop(key, None)
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + path if path else "")
    sys.path.insert(0, SRC)


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks, p in [0, 100]."""
    xs = sorted(values)
    rank = p / 100.0 * (len(xs) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def tail_percentile(min_samples: int) -> float:
    """Highest percentile with TAIL_MIN_BEYOND samples beyond it, for the
    smallest sample count a run can have.  Fixed per workload, so that every
    run of a workload reports the same percentile."""
    return 100.0 * (1.0 - TAIL_MIN_BEYOND / min_samples)


class Tally:
    """Outcome of a series of passes over a workload's operations."""

    def __init__(self):
        self.by_op_s: dict[str, list[float]] = {}
        self.pass_walls_s: list[float] = []
        self.pass_results: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []


def run_passes(ops, rng: random.Random, seconds: float, min_passes: int,
               max_passes: int | None = None, tally: Tally | None = None,
               op_spans: dict | None = None, tracer=None) -> Tally:
    """Whole passes over `ops`, each in a seeded order, until `seconds` have
    passed and at least `min_passes` are done.  A pass's wall time is the sum
    of its operations' latencies.  Checks run between operations, untimed,
    and so does a full garbage collection: no operation pays for the garbage
    of the one before it, and peak memory does not depend on the order."""
    tally = tally or Tally()
    start = time.perf_counter()
    done = 0
    last = 0.0
    while max_passes is None or done < max_passes:
        elapsed = time.perf_counter() - start
        if done >= min_passes and elapsed >= seconds:
            break
        if done and elapsed + last > PASS_BUDGET_S:
            break
        order = list(ops)
        rng.shuffle(order)
        wall, results = 0.0, {}
        for op in order:
            gc.collect()
            first = len(tracer) if tracer is not None else 0
            t0 = time.perf_counter()
            try:
                result, error = op.run(), None
            except Exception as exc:  # counted as a failed operation
                result, error = None, f"{op.name}: {type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if op_spans is not None:
                op_spans[op.name] = (first, len(tracer))
            if error is None:
                if tracer is not None:
                    tracer.uninstall()  # checks are not the workload's spans
                try:
                    problems = op.check(result)
                except Exception as exc:
                    problems = [f"{op.name}: check raised "
                                f"{type(exc).__name__}: {exc}"]
                if tracer is not None:
                    tracer.install()
            else:
                problems = [error]
            tally.attempted += 1
            if problems:
                tally.failed += 1
                tally.problems.extend(problems)
            tally.by_op_s.setdefault(op.name, []).append(dt)
            results[op.name] = result
            wall += dt
        tally.pass_walls_s.append(wall)
        tally.pass_results.append(results)
        last = wall
        done += 1
    return tally


def run_child(code: str) -> tuple[float, str]:
    """Time a fresh interpreter running `code`; returns (seconds, stdout)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}: {proc.stderr.strip()}")
    return dt, proc.stdout


def measure_setup(workload: str, workdir: str) -> list[float]:
    times = []
    for i in range(SETUP_REPEATS):
        target = os.path.join(workdir, f"setup-{i}")
        code = (f"import sys; sys.path.insert(0, {HERE!r}); import run; "
                f"run.setup_only({workload!r}, {target!r})")
        times.append(run_child(code)[0])
        shutil.rmtree(target, ignore_errors=True)
    return times


def setup_only(workload: str, workdir: str) -> None:
    """What setup_s times: import, build or load machines, one warm-up call."""
    pin_environment()
    import workloads
    os.makedirs(workdir, exist_ok=True)
    workloads.WORKLOADS[workload]().setup(workdir)


def measure_import() -> list[float]:
    code = ("import time; t = time.perf_counter(); import thermoneuron; "
            "print(time.perf_counter() - t)")
    return [float(run_child(code)[1]) for _ in range(IMPORT_REPEATS)]


def blas_threads() -> int | None:
    """Threads the bundled OpenBLAS will use, read from the library itself."""
    import ctypes
    import glob
    import numpy
    libdir = os.path.dirname(numpy.__file__) + ".libs"
    symbols = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
               "openblas_get_num_threads")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in symbols:
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def environment() -> dict:
    import platform
    import numpy
    import scipy
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=30).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "thermoneuron")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_env": dict(PINNED_ENV),
            "blas_threads": blas_threads(),
            "commit": commit or "unknown (not a git checkout)",
            "src_sha256": digest.hexdigest()}


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(wl, tally: Tally, setup_times: list[float], rss_kib: int,
               n_ops: int) -> tuple[dict, dict]:
    """The bounded metrics of BENCHMARK.json, and the other end-to-end figures."""
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "wall_s": metric(statistics.median(tally.pass_walls_s), "s"),
        "peak_rss_mb": metric(rss_kib / 1024.0, "MB"),
    }
    tail_p = tail_percentile(wl.min_passes * n_ops)
    lat_ms = [x * 1e3 for v in tally.by_op_s.values() for x in v]
    tail = percentile(lat_ms, tail_p)
    extra = {
        "latency_p50_ms": metric(percentile(lat_ms, 50.0), "ms"),
        "latency_tail_ms": metric(tail, "ms"),
        "tail_percentile": tail_p,
        "samples": len(lat_ms),
        "tail_samples_beyond": sum(1 for x in lat_ms if x > tail),
        "error_rate": metric(tally.failed / tally.attempted, "ratio"),
        "passes": len(tally.pass_walls_s),
        "setup_runs_s": setup_times,
        "pass_walls_s": tally.pass_walls_s,
        "op_median_ms": {name: statistics.median(v) * 1e3
                         for name, v in sorted(tally.by_op_s.items())},
    }
    return metrics, extra


def per_layer(tracer, op_spans: dict, traced: Tally, untraced: Tally,
              import_times: list[float]) -> dict:
    import spans as sp
    import workloads
    summ = tracer.summary()
    dur_ns = tracer.durations_ns()

    def per_call(name: str, scale: float) -> float:
        calls = summ["calls"].get(name, 0)
        return summ["total_ns"][name] / calls * scale if calls else 0.0

    def top_span(op: str, name: str) -> int | None:
        """First span named `name` opened directly by operation `op`."""
        if op not in op_spans or name not in tracer.names:
            return None
        want = tracer.name_id(name)
        first, end = op_spans[op]
        for i in range(first, end):
            if tracer.parent_col[i] == -1 and tracer.name_col[i] == want:
                return i
        return None

    def span_ns(idx) -> float:
        return float(dur_ns[idx]) if idx is not None else 0.0

    m = {
        "cli.import_s": metric(statistics.median(import_times), "s"),
        "cli.command_ms": metric(per_call("cli.main", 1e-6), "ms"),
    }
    for name, unit in (("serialize.load_machine", "ms"), ("serialize.dump_machine", "ms"),
                       ("designer.preset", "ms"), ("designer.train_perceptron", "ms"),
                       ("network.train_network", "ms"), ("neuron.steady_output", "us"),
                       ("network.eval_network", "us"), ("virtual.virtual_temperature", "us"),
                       ("channel.decode", "us"), ("serialize.format_csv", "ms"),
                       ("channel.conditional_outputs", "ms"),
                       ("channel.tradeoff_sweep", "ms"),
                       ("dynamics.evolve_quasi_static", "ms"),
                       ("quantum.lindblad_rhs", "us"), ("quantum.integrate_master", "ms"),
                       ("virtual.build_interaction_hamiltonian", "us")):
        scale = 1e-6 if unit == "ms" else 1e-3
        m[f"{name}_{unit}"] = metric(per_call(name, scale), unit)
    for name in ("neuron.steady_output", "network.eval_network"):
        m[f"{name}.calls"] = metric(summ["calls"].get(name, 0), "count")
    for gate, row in workloads.EVOLVE_CASES:
        label = workloads.case_label(gate, row)
        idx = top_span(f"full-{label}", "dynamics.evolve_full")
        m[f"dynamics.evolve_full_s.{label}"] = metric(span_ns(idx) * 1e-9, "s")
    for gate, dim in workloads.STEADY_CASES:
        idx = top_span(f"steady-d{dim}", "quantum.steady_state")
        sub = tracer.children(idx, "quantum.superoperator_matrix") if idx is not None else []
        m[f"quantum.superoperator_matrix_ms.d{dim}"] = metric(
            span_ns(sub[0] if sub else None) * 1e-6, "ms")
        m[f"quantum.steady_state_ms.d{dim}"] = metric(span_ns(idx) * 1e-6, "ms")
    results = traced.pass_results[0]
    master = results.get("integrate-master")
    m["quantum.integrate_master.rhs_calls"] = metric(master[1] if master else 0, "count")
    gaps = workloads.full_quasi_gaps(results)
    for gate, row in workloads.EVOLVE_CASES:
        label = workloads.case_label(gate, row)
        m[f"dynamics.full_quasi_gap.{label}"] = metric(gaps.get(label, 0.0), "1/energy")
    for layer in sp.LAYERS:
        m[f"{layer}.self_ms"] = metric(summ["layer_self_ns"][layer] * 1e-6, "ms")
        m[f"{layer}.calls"] = metric(summ["layer_calls"][layer], "count")
    m["trace.overhead_s"] = metric(
        traced.pass_walls_s[0] - statistics.median(untraced.pass_walls_s), "s")
    return m


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    pin_environment()
    import workloads
    wl = workloads.WORKLOADS[workload]()
    ref = workloads.load_reference()[workload]
    workdir = os.path.join(WORK_ROOT, f"{workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        rng = random.Random(seed)
        record = {"workload": workload, "seed": seed, "seconds": seconds,
                  "trace": int(trace)}
        if not trace:
            setup_times = measure_setup(workload, workdir)
            wl.setup(workdir)
            child_rss: list[int] = []
            ops = wl.ops(workdir, ref, in_process=False, rss=child_rss)
            tally = run_passes(ops, rng, seconds, wl.min_passes)
            rss = (max(child_rss) if child_rss
                   else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
            metrics, extra = end_to_end(wl, tally, setup_times, rss, len(ops))
            if workload == "transfer-sweep":
                extra["points_per_s"] = metric(
                    workloads.SWEEP_POINTS / metrics["wall_s"]["value"], "1/s")
            if workload == "full-dynamics":
                extra["full_quasi_gap"] = workloads.full_quasi_gaps(tally.pass_results[0])
        else:
            import spans as sp
            import_times = measure_import()
            wl.setup(workdir)
            ops = wl.ops(workdir, ref, in_process=True, rss=[])
            untraced = run_passes(ops, rng, seconds, 1)
            tracer = sp.Tracer()
            op_spans: dict = {}
            tracer.install()
            try:
                traced = run_passes(ops, rng, 0.0, 1, max_passes=1, tally=Tally(),
                                    op_spans=op_spans, tracer=tracer)
            finally:
                tracer.uninstall()
            metrics = per_layer(tracer, op_spans, traced, untraced, import_times)
            os.makedirs(OUT_ROOT, exist_ok=True)
            span_path = os.path.join(OUT_ROOT, f"{workload}.spans.npz")
            tracer.write(span_path)
            tally = Tally()
            for part in (untraced, traced):
                tally.attempted += part.attempted
                tally.failed += part.failed
                tally.problems += part.problems
            extra = {"spans": len(tracer), "span_file": os.path.relpath(span_path, ROOT),
                     "traced_wall_s": traced.pass_walls_s[0],
                     "untraced_wall_s": statistics.median(untraced.pass_walls_s),
                     "error_rate": metric(tally.failed / tally.attempted, "ratio")}
        record.update(env=environment(), metrics=metrics, extra=extra,
                      attempted=tally.attempted, failed=tally.failed,
                      problems=tally.problems[:50])
        return record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass


def report(record: dict) -> None:
    print(f"# workload {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}")
    print("# env " + json.dumps(record["env"], sort_keys=True))
    for name, m in record["metrics"].items():
        print(f"# {name} = {m['value']!r} {m['unit']}")
    for name, value in record["extra"].items():
        if isinstance(value, dict) and "unit" in value:
            print(f"# {name} = {value['value']!r} {value['unit']}")
        else:
            print(f"# {name}: {json.dumps(value)}")
    for problem in record["problems"]:
        print(f"# FAILED {problem}")
    os.makedirs(OUT_ROOT, exist_ok=True)
    path = os.path.join(OUT_ROOT, f"{record['workload']}-seed{record['seed']}"
                                  f"-trace{record['trace']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    result = {"correct": record["failed"] == 0, "attempted": record["attempted"],
              "failed": record["failed"], "metrics": record["metrics"]}
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli-session", "transfer-sweep", "full-dynamics"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "thermoneuron", "__init__.py")):
        print(f"error: no thermoneuron sources under {SRC}; run from the root of "
              "a source checkout", file=sys.stderr)
        return 2
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:
        traceback.print_exc()
        return 1
    report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
