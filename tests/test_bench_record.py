"""The benchmark recorder's summary, from two canned `perfbench/run.py` outputs.

No test here runs the benchmark.
"""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("bench_record", ROOT / "bench_record.py")
bench_record = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_record)

ENV = ('{"blas_env": {"OPENBLAS_NUM_THREADS": "1"}, "blas_threads": 1, '
       '"commit": "unknown (not a git checkout)", "nproc": 2}')


def run_output(setup_s, wall_s, rss_mb, passes, failed=0):
    """What `run.py --trace 0` prints: `#` lines, then the result line."""
    return "\n".join([
        "# workload full-dynamics  seed 1  trace 0",
        f"# env {ENV}",
        f"# setup_s = {setup_s!r} s",
        f"# passes: {passes}",
        f"# pass_walls_s: [{wall_s!r}]",
        ('{"correct": %s, "attempted": 36, "failed": %d, "metrics": '
         '{"setup_s": {"value": %r, "unit": "s"}, "wall_s": {"value": %r, "unit": "s"}, '
         '"peak_rss_mb": {"value": %r, "unit": "MB"}}}'
         % ("true" if failed == 0 else "false", failed, setup_s, wall_s, rss_mb)),
    ]) + "\n"


BENCHMARK = {
    "workloads": [{"name": "full-dynamics"}],
    "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
                   {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
                   {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.2}],
}


def test_parse_run_reads_the_result_the_passes_and_the_env():
    run = bench_record.parse_run(run_output(0.3, 0.25, 97.5, 12, failed=1))
    assert run["correct"] is False and run["failed"] == 1 and run["attempted"] == 36
    assert run["passes"] == 12
    assert run["metrics"] == {"setup_s": 0.3, "wall_s": 0.25, "peak_rss_mb": 97.5}
    assert run["env"]["blas_threads"] == 1


def test_summary_gives_both_sides_spread_and_the_pairs_the_change_wins():
    base = bench_record.parse_run(run_output(0.30, 0.25, 97.5, 12))
    change = bench_record.parse_run(run_output(0.32, 0.20, 97.5, 14))
    runs = [dict(base, workload="full-dynamics", pair=1, seed=1, side="base"),
            dict(change, workload="full-dynamics", pair=1, seed=1, side="change")]
    summary = bench_record.summarise(runs, BENCHMARK)["full-dynamics"]
    setup, wall, rss = (summary["metrics"][k] for k in ("setup_s", "wall_s", "peak_rss_mb"))
    assert setup["base"] == {"median": 0.30, "q1": 0.30, "q3": 0.30, "iqr": 0.0}
    assert setup["change"]["median"] == 0.32 and setup["bound"] == 0.25
    assert (setup["change_wins"], setup["base_wins"]) == (0, 1)
    assert (wall["change_wins"], wall["base_wins"]) == (1, 0)
    assert (rss["change_wins"], rss["base_wins"], rss["pairs"]) == (0, 0, 1)   # a tie
    assert [(r["side"], r["correct"], r["failed"], r["passes"]) for r in summary["runs"]] \
        == [("base", True, 0, 12), ("change", True, 0, 14)]
    assert all("env" not in r for r in summary["runs"])


def test_spread_takes_inclusive_quartiles():
    assert bench_record.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(
        {"median": 3.0, "q1": 2.0, "q3": 4.0, "iqr": 2.0})


def test_a_run_that_failed_counts_in_no_pair():
    base = bench_record.parse_run(run_output(0.30, 0.25, 97.5, 12))
    runs = [dict(base, workload="full-dynamics", pair=1, seed=1, side="base"),
            {"correct": False, "failed": None, "attempted": None, "passes": None,
             "error": "RuntimeError: boom", "workload": "full-dynamics", "pair": 1,
             "seed": 1, "side": "change"}]
    wall = bench_record.summarise(runs, BENCHMARK)["full-dynamics"]["metrics"]["wall_s"]
    assert wall["change"] is None and wall["pairs"] == 0
