"""Property-based fuzzing of `thermoneuron sweep`: every argv either writes a
CSV of the right size (exit 0) or fails with one `error:` line (exit 2)."""

import contextlib
import io
import math

import pytest
from hypothesis import given, settings, strategies as st

import thermoneuron as tn
from thermoneuron.channel import machine_arity
from thermoneuron.cli import main

# Each pool is half well-formed tokens and half odd ones, so that about one
# example in six gets through parsing to the kernel and the writer.
NUMBERS = st.one_of(
    st.sampled_from(["0", "1", "-0", "0.5", ".25", "+1", "-1", "2", "1e-3", " 0.75 "]),
    st.sampled_from(["1e308", "-1e308", "1e400", "nan", "-nan", "inf", "-inf",
                     "", "x", "0x1", "1,5"]))
COUNTS = st.one_of(st.sampled_from(["0", "1", "2", "3", "5", " 2", "+3", "03"]),
                   st.sampled_from(["-1", "2.0", "1e1", "x", "", "0x2"]))
RANGES = st.one_of(
    st.tuples(NUMBERS, NUMBERS, COUNTS).map(":".join),
    st.lists(st.one_of(NUMBERS, COUNTS), min_size=1, max_size=4).map(":".join))
LISTS = st.lists(NUMBERS, max_size=5).map(",".join)
GRIDS = st.lists(st.one_of(RANGES, LISTS), min_size=1, max_size=4).map(";".join)
BANDS = st.sampled_from(["multiplicative", "additive", "", "Additive", "band"])
DELTAS = st.one_of(
    st.sampled_from(["0", "0.1", "0.4", "0.5", "1", "-0.1", "nan", "inf", "abc", ""]),
    st.floats(-0.5, 1.5).map(repr))


@pytest.fixture(scope="module")
def machines(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    nets = {"NOT": tn.preset("NOT"), "NOR": tn.preset("NOR"), "MAJ3": tn.preset("MAJ3"),
            "XOR": tn.train_network(tn.gate_table("XOR"), [2, 1],
                                    tn.DesignConfig(seed=7))}
    provenance = {"weights": [], "alpha": 20.0, "eps_z": 0.1, "seed": 0,
                  "tool_version": tn.TOOL_VERSION}
    paths = {}
    for name, machine in nets.items():
        paths[name] = (str(root / f"{name}.json"), machine_arity(machine))
        tn.dump_machine(paths[name][0], machine, provenance)
    return root, paths


def grid_counts(spec: str, arity: int) -> list[int]:
    """Points per input of a grid the CLI accepted."""
    counts = [int(g.split(":")[2]) if ":" in g else len([t for t in g.split(",") if t])
              for g in spec.split(";")]
    return counts * arity if len(counts) == 1 else counts


@settings(max_examples=60, deadline=None, derandomize=True)
@given(gate=st.sampled_from(["NOT", "NOR", "MAJ3", "XOR"]), grid=GRIDS,
       band=BANDS, delta=DELTAS)
def test_sweep_exits_0_or_2_and_never_raises(machines, gate, grid, band, delta):
    root, paths = machines
    path, arity = paths[gate]
    out = root / "sweep.csv"
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["sweep", path, f"--grid={grid}", f"--band={band}",
                     f"--delta={delta}", "--out", str(out)])
    assert code in (0, 2)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert not out.exists()
    else:
        text = out.read_text()
        assert text.count("\n") == 2 + math.prod(grid_counts(grid, arity))
