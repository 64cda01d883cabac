"""The columnar CSV writer against the row-wise formatter it replaced.

The reference below builds every row as a Python list, decodes beta_z one
value at a time with the scalar band rule, and formats each cell after an
`isinstance` test.  Every CSV the CLI writes must match it byte for byte.
"""

import io
import math

import numpy as np
import pytest

import thermoneuron as tn
from thermoneuron import channel as ch
from thermoneuron.designer import BANDS
from thermoneuron.cli import _parse_grid, main
from thermoneuron.dynamics import CSV_HEADER
from thermoneuron.serialize import CSV_BLOCK, UNITS_NOTE, format_csv


def row_wise_format_csv(header, rows):
    lines = [f"# units: {UNITS_NOTE}", ",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, float):
                cells.append(f"{v:.12g}")
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def scalar_decode(beta_z, edges):
    if beta_z <= edges[0]:
        return 0
    if beta_z >= edges[1]:
        return 1
    return None


def bit_label(beta_z, edges):
    bit = scalar_decode(beta_z, edges)
    return bit if bit is not None else "invalid"


def reference_sweep(machine, grid_spec, band, delta):
    arity = machine.n
    grids = [_parse_grid(g) for g in grid_spec.split(";")]
    if len(grids) == 1:
        grids = grids * arity
    edges = tn.Encoding(delta, band).edges(machine)
    points = np.stack(np.meshgrid(*grids, indexing="ij"), axis=-1).reshape(-1, arity)
    if isinstance(machine, tn.NeuronSpec):
        columns, extra = (points, *tn.steady_response(machine, points)), ["beta_v"]
    else:
        columns, extra = (points, ch.machine_response(machine, points)), []
    header = [f"beta_{i + 1}" for i in range(arity)] + extra + ["beta_z_inf", "decoded"]
    rows = ([*row, bit_label(row[-1], edges)]
            for row in zip(*np.column_stack(columns).T.tolist()))
    return row_wise_format_csv(header, rows)


@pytest.fixture(scope="module")
def machines(tmp_path_factory):
    root = tmp_path_factory.mktemp("machines")
    (root / "xor.tt").write_text("0 0 : 0\n0 1 : 1\n1 0 : 1\n1 1 : 0\n")
    designs = {"not": ["--gate", "NOT"], "nor": ["--gate", "NOR", "--alpha", "20"],
               "maj3": ["--gate", "MAJ3", "--alpha", "10"],
               "xor": ["--table", str(root / "xor.tt"), "--layers", "2,1",
                       "--seed", "7"]}
    paths = {}
    for name, argv in designs.items():
        paths[name] = str(root / f"{name}.json")
        assert main(["design", *argv, "--out", paths[name]]) == 0
    # Unequal input gaps: no two points of a grid share beta_v or beta_z.
    paths["unequal"] = str(root / "unequal.json")
    unequal = tn.build_neuron((1.14, 0.73, 0.31), (0, 1, 1), 0.5, 0.1)
    tn.dump_machine(paths["unequal"], unequal, {"weights": [], "alpha": 1.0, "eps_z": 0.1,
                                                "seed": 0, "tool_version": tn.TOOL_VERSION})
    return paths


SWEEPS = [(gate, grid, band, 0.1)
          for gate, grid in (("not", "0:1:101"), ("nor", "0:1:71"),
                             ("maj3", "0:1:9"), ("xor", "-0.25:1.25:31"))
          for band in BANDS] + [
    ("not", "0:1:51", "multiplicative", 0.4),
    ("nor", "0:1:21", "additive", 0.4),
    ("nor", "0.5,-0,0.1,0.5,1;1,0,-0,0.25", "multiplicative", 0.1),
    ("maj3", "1,0.5,1;0,-0;0.75,0.25", "additive", 0.2),
    ("nor", "0.3:0.7:1", "additive", 0.1),
    ("xor", "0.5;0.5", "additive", 0.1),
    ("nor", "0:1:0", "additive", 0.1),
    ("maj3", "0:1:3;0:1:3;", "additive", 0.1),
    ("unequal", "0:1:31", "additive", 0.1),
]


@pytest.mark.parametrize("gate,grid,band,delta", SWEEPS)
def test_sweep_matches_row_wise_writer(machines, tmp_path, gate, grid, band, delta):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", machines[gate], f"--grid={grid}", "--band", band,
            "--delta", str(delta), "--out", str(out)]
    assert main(argv) == 0
    machine, _ = tn.load_machine(machines[gate])
    assert out.read_text() == reference_sweep(machine, grid, band, delta)


def test_unequal_gaps_give_no_repeated_output(machines):
    machine, _ = tn.load_machine(machines["unequal"])
    grid = np.linspace(0.0, 1.0, 31)
    points = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1).reshape(-1, 2)
    beta_v, beta_z = tn.steady_response(machine, points)
    assert len(set(beta_v.tolist())) == len(set(beta_z.tolist())) == len(points)


def test_float_columns_match_row_wise_writer():
    """Repeats (within a block and across the CSV_BLOCK boundary), both signed
    zeros in one block, +-inf, nan and a subnormal."""
    rng = np.random.default_rng(18)
    pool = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310,
                     1 / 3, -1 / 3, 0.1, 1e300, 123456789.0123])
    n = 2 * CSV_BLOCK + 7
    first = rng.choice(pool, n)
    first[CSV_BLOCK - 3:CSV_BLOCK + 3] = [0.0, -0.0, 1 / 3, 1 / 3, -0.0, 0.0]
    second = np.repeat(rng.uniform(-1.0, 1.0, 5), -(-n // 5))[:n]
    labels = np.array(["0", "1", "invalid"], dtype=object)[rng.integers(0, 3, n)]
    header = ["a", "b", "decoded"]
    out = io.StringIO()
    format_csv(header, (first, second, labels), out)
    rows = zip(first.tolist(), second.tolist(), labels.tolist())
    assert out.getvalue() == row_wise_format_csv(header, rows)
    lines = out.getvalue().splitlines()[2:]
    assert {"0", "-0", "inf", "-inf", "nan", "4.94065645841e-324"} <= {r.split(",")[0]
                                                                       for r in lines}


def test_oracle_cases_cover_invalid_and_empty_output(machines, tmp_path):
    texts = {}
    for grid, delta in (("0:1:51", 0.4), ("0:1:0", 0.1)):
        out = tmp_path / "sweep.csv"
        main(["sweep", machines["not"], f"--grid={grid}", "--delta", str(delta),
              "--out", str(out)])
        texts[grid] = out.read_text()
    assert ",invalid\n" in texts["0:1:51"]
    assert texts["0:1:0"].count("\n") == 2


def test_stdout_equals_file(machines, tmp_path, capsys):
    argv = ["sweep", machines["maj3"], "--grid", "0:1:17", "--band", "additive"]
    assert main(argv + ["--out", str(tmp_path / "s.csv")]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == (tmp_path / "s.csv").read_text()


def test_simulate_csv_matches_row_wise_writer(machines, tmp_path):
    out = tmp_path / "sim.csv"
    argv = ["simulate", machines["not"], "--inputs", "1", "--mode", "quasi",
            "--tau", "1e6", "--out", str(out)]
    assert main(argv) == 0
    machine, _ = tn.load_machine(machines["not"])
    traj = tn.evolve_quasi_static(
        machine, [1.0], 0.5 * (machine.beta_hot + machine.beta_cold), 1e6)
    rows = zip(traj.t, traj.beta_z, traj.j_collector, traj.j_modulator,
               traj.sigma_dot, traj.sigma)
    assert out.read_text() == row_wise_format_csv(CSV_HEADER, rows)


def test_tradeoff_and_inset_csvs_match_row_wise_writer(tmp_path):
    out = tmp_path / "tr.csv"
    grid, tau, n_inset = [1.0, 2.0, 4.0], 1e4, 5
    assert main(["tradeoff", "--grid", "1,2,4", "--tau", str(tau), "--inset",
                 str(n_inset), "--out", str(out)]) == 0
    enc, config = tn.Encoding(), tn.DesignConfig(eps_z=0.1, seed=0)
    points = ch.tradeoff_sweep("NOT", "eps1", grid, enc, spread=0.05, tau=tau,
                               config=config)
    rows = [(p.knob, p.avg_sigma, p.avg_xi, p.avg_invalid) for p in points]
    assert out.read_text() == row_wise_format_csv(
        ("eps1", "avg_sigma", "avg_xi", "avg_invalid"), rows)
    inset_rows = []
    for value in grid:
        machine = tn.inverter(eps_input=value, eps_z=config.eps_z, mu=config.mu)
        for beta_1 in np.linspace(0.0, 1.0, n_inset):
            traj = tn.evolve_quasi_static(machine, [beta_1], 0.5, tau)
            inset_rows.append((value, float(beta_1), float(traj.sigma[-1])))
    assert (tmp_path / "tr.csv.inset.csv").read_text() == row_wise_format_csv(
        ("eps1", "beta_1", "sigma"), inset_rows)
