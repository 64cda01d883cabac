"""Property-based fuzzing of the CLI: every argv either succeeds (exit 0, or 1
for a `verify` that finds failing rows) or fails with one `error:` line and no
output file (exit 2).  Negative values are passed as separate tokens, so the
parser must read them as values in every float form."""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

import thermoneuron as tn
from thermoneuron.cli import main

ARITY = {"NOT": 1, "NOR": 2, "MAJ3": 3, "XOR": 2}

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


def mostly(good, odd, odds=6):
    """Draws from `good` about `odds` times as often as from `odd`, so that
    examples with several arguments still reach the kernel and the writer."""
    return st.integers(0, odds).flatmap(lambda k: good if k else odd)


# Pools for the commands with several numeric arguments.
VALUES = mostly(st.sampled_from(["0", "1", "-0", "0.5", ".25", "+1", "2", "1e-3",
                                 " 0.75 ", "-1", "-.5", "-1e-3", "-2E+0"]),
                st.sampled_from(["1e308", "-1e308", "1e400", "nan", "-nan", "inf",
                                 "-inf", "", "x", "0x1", "1,5"]))
TAUS = mostly(st.sampled_from(["0", "1", "10", "1e2"]),
              st.sampled_from(["-1", "-1e-3", "inf", "1e400", "nan", "x", "5e-324",
                               "1e-322", "1e-200"]))
WIDTHS = mostly(st.sampled_from(["0.05", "0.2"]),
                st.sampled_from(["0", "-1e-2", "nan", "inf", "x"]))
GOOD_BANDS = mostly(st.sampled_from(["multiplicative", "additive"]), BANDS)
GOOD_DELTAS = mostly(st.sampled_from(["0", "0.1", "0.25", "4e-1"]), DELTAS)
# A machine name and input tokens, mostly as many as it has inputs.
GATE_INPUTS = st.sampled_from(sorted(ARITY)).flatmap(lambda g: st.tuples(
    st.just(g), mostly(st.just(ARITY[g]), st.sampled_from([ARITY[g] - 1, ARITY[g] + 1]))
    .flatmap(lambda n: st.lists(VALUES, min_size=n, max_size=n))))

TABLES = {"not.tt": "0 : 1\n1 : 0\n",
          "nor.tt": "0 0 : 1\n0 1 : 0\n1 0 : 0\n1 1 : 0\n",
          "xor.tt": "0 0 : 0\n0 1 : 1\n1 0 : 1\n1 1 : 0\n",
          "maj3.tt": "".join(f"{a} {b} {c} : {int(a + b + c >= 2)}\n"
                             for a in (0, 1) for b in (0, 1) for c in (0, 1)),
          "bits.tt": "0 0 : 2\n0 1 : 0\n1 0 : 0\n1 1 : 0\n",
          "short.tt": "0 0 : 1\n",
          "empty.tt": ""}
ODD_TABLES = st.sampled_from(["bits.tt", "short.tt", "empty.tt", "binary.tt",
                              "missing.tt"])
TABLE_PATHS = mostly(st.sampled_from(["not.tt", "nor.tt", "xor.tt", "maj3.tt"]),
                     ODD_TABLES)


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
        paths[name] = str(root / f"{name}.json")
        tn.dump_machine(paths[name], machine, provenance)
    for name, text in TABLES.items():
        (root / name).write_text(text)
    (root / "binary.tt").write_bytes(b"\xff\xfe0 : 1\n")
    return root, paths


def run_cli(argv, outputs=()):
    """`main(argv)`'s exit code and stdout.  Exit 2 must come with exactly one
    stderr line, an `error:` line, and leave none of `outputs` behind."""
    for path in outputs:
        path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert not any(path.exists() for path in outputs)
    return code, out.getvalue()


def grid_counts(spec: str, arity: int) -> list[int]:
    """Points per input of a grid the CLI accepted."""
    counts = [int(g.split(":")[2]) if ":" in g else len([t for t in g.split(",") if t])
              for g in spec.split(";")]
    return counts * arity if len(counts) == 1 else counts


@settings(max_examples=60, deadline=None, derandomize=True)
@given(gate=st.sampled_from(sorted(ARITY)), grid=GRIDS, band=BANDS, delta=DELTAS)
def test_sweep_exits_0_or_2_and_never_raises(machines, gate, grid, band, delta):
    root, paths = machines
    out = root / "sweep.csv"
    code, _ = run_cli(["sweep", paths[gate], "--grid", grid, f"--band={band}",
                       "--delta", delta, "--out", str(out)], [out])
    assert code in (0, 2)
    if code == 0:
        text = out.read_text()
        assert text.count("\n") == 2 + math.prod(grid_counts(grid, ARITY[gate]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(gate_inputs=GATE_INPUTS, band=GOOD_BANDS, delta=GOOD_DELTAS,
       as_json=st.booleans())
def test_steady_exits_0_or_2(machines, gate_inputs, band, delta, as_json):
    _, paths = machines
    gate, inputs = gate_inputs
    argv = ["steady", paths[gate], "--inputs", *inputs, "--band", band,
            "--delta", delta] + ["--json"] * as_json
    code, out = run_cli(argv)
    assert code in (0, 2)
    if code == 0:
        assert len(inputs) == ARITY[gate]
        decoded = (json.loads(out)["decoded"] if as_json
                   else out.splitlines()[-1].split("=")[1].strip())
        assert str(decoded) in ("0", "1", "invalid")


@settings(max_examples=30, deadline=None, derandomize=True)
@given(gate_inputs=GATE_INPUTS,
       tau=TAUS, mode=mostly(st.sampled_from(["quasi", "full"]), st.just("x")),
       beta_z0=st.one_of(st.none(), VALUES))
def test_simulate_exits_0_or_2(machines, gate_inputs, tau, mode, beta_z0):
    root, paths = machines
    gate, inputs = gate_inputs
    out = root / "trajectory.csv"
    argv = ["simulate", paths[gate], "--inputs", *inputs, "--tau", tau,
            "--mode", mode, "--out", str(out)]
    if beta_z0 is not None:
        argv += ["--beta-z0", beta_z0]
    code, _ = run_cli(argv, [out])
    assert code in (0, 2)
    if code == 0:
        lines = out.read_text().splitlines()
        assert lines[1] == "t,beta_z,j_C,j_M,sigma_dot,sigma" and len(lines) >= 3


@settings(max_examples=40, deadline=None, derandomize=True)
@given(machine=st.sampled_from(sorted(ARITY)),
       source=mostly(st.sampled_from(["table", "gate"]), st.sampled_from(["both", "neither"])),
       odd_table=mostly(st.none(), ODD_TABLES),
       odd_gate=mostly(st.none(), st.sampled_from(["AND", "MAJ3", "x", ""])),
       band=GOOD_BANDS, delta=GOOD_DELTAS, width=WIDTHS)
def test_verify_exits_0_1_or_2(machines, machine, source, odd_table, odd_gate,
                               band, delta, width):
    root, paths = machines
    argv = ["verify", paths[machine], "--band", band, "--delta", delta, "--C", width]
    if source in ("table", "both"):
        argv += ["--table", str(root / (odd_table or f"{machine.lower()}.tt"))]
    if source in ("gate", "both"):
        argv += ["--gate", odd_gate if odd_gate is not None else machine]
    code, out = run_cli(argv)
    assert code in (0, 1, 2)
    if code != 2:
        assert source in ("table", "gate")
        assert "rows correct" in out


# One- or two-point grids of knob values.
TRADEOFF_GRIDS = st.one_of(
    st.lists(mostly(st.sampled_from(["2", "5", "10"]),
                    st.sampled_from(["0", "-1", "1e300", "nan", "x", ""])),
             min_size=1, max_size=2).map(",".join),
    st.tuples(st.sampled_from(["2", "-1"]), st.sampled_from(["5", "inf"]),
              st.sampled_from(["0", "1", "2", "-1"])).map(":".join))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(gate_knob=mostly(st.sampled_from([("NOT", "eps1"), ("NOT", "alpha"),
                                           ("NOR", "alpha"), ("MAJ3", "alpha")]),
                        st.sampled_from([("NOR", "eps1"), ("x", "alpha"), ("NOT", "x")])),
       grid=TRADEOFF_GRIDS, tau=TAUS, width=WIDTHS,
       inset=st.one_of(st.none(), mostly(st.sampled_from(["0", "2", "3"]),
                                         st.sampled_from(["-3", "x", "1.5"]))))
def test_tradeoff_exits_0_or_2(machines, gate_knob, grid, tau, width, inset):
    root, _ = machines
    gate, knob = gate_knob
    out = root / "tradeoff.csv"
    inset_out = root / "tradeoff.csv.inset.csv"
    argv = ["tradeoff", "--gate", gate, "--knob", knob, "--grid", grid,
            "--tau", tau, "--C", width, "--out", str(out)]
    if inset is not None:
        argv += ["--inset", inset]
    code, _ = run_cli(argv, [out, inset_out])
    assert code in (0, 2)
    if code == 0:
        points = grid_counts(grid, 1)[0]
        assert out.read_text().count("\n") == 2 + points
        if inset is not None:
            assert inset_out.read_text().count("\n") == 2 + points * int(inset)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(table=TABLE_PATHS,
       layers=st.one_of(st.none(), mostly(st.sampled_from(["2,1", "1", "3,1"]),
                                          st.sampled_from(["2,2", "0", "2,-1", "x", "",
                                                           "1,"]))),
       seed=mostly(st.sampled_from(["0", "7", "03"]), st.sampled_from(["-1", "x", "1e1"])),
       alpha=mostly(st.sampled_from(["20", "5", "10"]),
                    st.sampled_from(["0", "-1", "inf", "1e300", "x"])))
def test_design_exits_0_or_2(machines, table, layers, seed, alpha):
    root, _ = machines
    out = root / "design.json"
    argv = ["design", "--table", str(root / table), "--seed", seed,
            "--alpha", alpha, "--out", str(out)]
    if layers is not None:
        argv += ["--layers", layers]
    code, stdout = run_cli(argv, [out])
    assert code in (0, 2)
    if code == 0:
        machine, _ = tn.load_machine(str(out))
        assert machine.n == tn.TruthTable.from_text(TABLES[table]).n
        assert stdout.endswith(f"wrote {out}\n")
