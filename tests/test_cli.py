"""End-to-end CLI contract: exit codes, determinism, file round-trips."""

import itertools
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import thermoneuron as tn
from conftest import on_rails
from thermoneuron import channel as ch
from thermoneuron import cli
from thermoneuron.cli import main
from thermoneuron.designer import logic_rows
from thermoneuron.errors import ConfigError
from thermoneuron.serialize import (load_machine, machine_from_document,
                                    machine_to_document, neuron_to_dict)

XOR_TT = "0 0 : 0\n0 1 : 1\n1 0 : 1\n1 1 : 0\n"
NOR_TT = "0 0 : 1\n0 1 : 0\n1 0 : 0\n1 1 : 0\n"


@pytest.fixture
def xor_table(tmp_path):
    path = tmp_path / "xor.tt"
    path.write_text(XOR_TT)
    return str(path)


def design_nor(tmp_path, alpha=20.0):
    out = str(tmp_path / "nor.json")
    code = main(["design", "--gate", "NOR", "--alpha", str(alpha), "--out", out])
    assert code == 0
    return out


class TestDesign:
    def test_gate_preset_writes_machine(self, tmp_path, capsys):
        out = design_nor(tmp_path)
        machine, provenance = load_machine(out)
        assert machine.h == (0, 1, 1)
        assert provenance["alpha"] == 20.0
        printed = capsys.readouterr().out
        assert "resonance check" in printed
        assert "perceptron identity residual" in printed

    def test_non_separable_table_exits_2(self, xor_table, tmp_path, capsys):
        code = main(["design", "--table", xor_table,
                     "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert "separable" in capsys.readouterr().err

    def test_non_separable_with_layers_trains_network(self, xor_table, tmp_path):
        out = str(tmp_path / "xor.json")
        code = main(["design", "--table", xor_table, "--layers", "2,1",
                     "--seed", "7", "--out", out])
        assert code == 0
        machine, _ = load_machine(out)
        for bits, want in tn.gate_table("XOR").rows():
            betas = [float(b) for b in bits]
            final = tn.eval_layers(machine, [betas])[-1][0, -1]
            decoded = 0 if final <= 0.1 else (1 if final >= 0.9 else None)
            assert decoded == want

    def test_network_file_keeps_its_input_count_key(self, xor_table, tmp_path):
        # NetworkSpec names its input count n, as NeuronSpec does; the file
        # still spells it "n_inputs" and refuses "n" as an unknown field.
        out = tmp_path / "xor.json"
        assert main(["design", "--table", xor_table, "--layers", "2,1",
                     "--seed", "7", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert set(doc["spec"]) == {"layers", "n_inputs"}
        net, _ = load_machine(str(out))
        assert net.n == 2
        doc["spec"]["n"] = doc["spec"].pop("n_inputs")
        with pytest.raises(ConfigError, match=re.escape(
                "unknown fields in network spec: ['n']")):
            machine_from_document(doc)

    @pytest.mark.parametrize("layers", ["2,1", "0"])
    def test_gate_with_layers_is_a_usage_error(self, tmp_path, capsys, layers):
        out = tmp_path / "g.json"
        code = main(["design", "--gate", "NOT", "--layers", layers, "--out", str(out)])
        assert code == 2 and not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: argument --layers: not allowed with argument --gate\n"

    def test_missing_table_exits_2(self, tmp_path):
        code = main(["design", "--table", str(tmp_path / "nope.tt"),
                     "--out", str(tmp_path / "x.json")])
        assert code == 2

    def test_table_entry_not_a_bit_exits_2_with_one_line(self, tmp_path, capsys):
        # Each entry below reads as a bit under int(), so this was NOR's table.
        table = tmp_path / "odd.tt"
        table.write_text("-0 0 : 1\n0 +1 : 0\n1 00 : 0\n1 1 : 0_0\n")
        out = tmp_path / "odd.json"
        assert main(["design", "--table", str(table), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: argument --table: truth table line 1: entry '-0' is not 0 or 1\n")
        assert not out.exists()


    def test_warnings_show_as_one_line_each(self, tmp_path):
        # In a fresh process, as a user runs it: one `warning:` line per
        # warning, without the library line that raised it.
        table = tmp_path / "nor.tt"
        table.write_text("0 0 : 1\n0 1 : 0\n1 0 : 0\n1 1 : 0\n")
        src = str(Path(tn.__file__).parents[1])
        run = subprocess.run(
            [sys.executable, "-m", "thermoneuron.cli", "design", "--table", str(table),
             "--eps-z", "1e-12", "--out", str(tmp_path / "a.json")],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
        assert run.returncode == 0
        assert run.stderr.splitlines() == [
            "warning: modulator coupling nearly vanishes (delta = 5.000e-12)",
            "warning: weak time-scale separation: gamma/max(mu, mu') = 5e-08 < 100"]


class TestSteady:
    def test_not_preset_inverts(self, tmp_path, capsys):
        out = str(tmp_path / "not.json")
        assert main(["design", "--gate", "NOT", "--alpha", "20",
                     "--out", out]) == 0
        capsys.readouterr()
        code = main(["steady", out, "--inputs", "0", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["decoded"] == 1
        assert abs(payload["beta_z_inf"] - 1.0) < 1e-3

    def test_arity_mismatch_exits_2(self, tmp_path, capsys):
        out = design_nor(tmp_path)
        capsys.readouterr()
        assert main(["steady", out, "--inputs", "0"]) == 2

    def test_network_steady_reports_layers(self, xor_table, tmp_path, capsys):
        out = str(tmp_path / "xor.json")
        main(["design", "--table", xor_table, "--layers", "2,1", "--seed", "7",
              "--out", out])
        capsys.readouterr()
        assert main(["steady", out, "--inputs", "0", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["decoded"] == 1
        assert len(payload["layer_outputs"]) == 2


class TestSimulate:
    def test_endpoint_residual_small(self, tmp_path, capsys):
        out = str(tmp_path / "not.json")
        main(["design", "--gate", "NOT", "--alpha", "20", "--out", out])
        capsys.readouterr()
        csv_path = str(tmp_path / "traj.csv")
        code = main(["simulate", out, "--inputs", "0", "--tau", "1e8",
                     "--mode", "quasi", "--out", csv_path])
        assert code == 0
        err = capsys.readouterr().err
        assert "residual vs steady state" in err
        residual = float(err.rsplit("=", 1)[1])
        assert residual <= 1e-4
        lines = Path(csv_path).read_text().splitlines()
        assert lines[1] == "t,beta_z,j_C,j_M,sigma_dot,sigma"

    def test_full_mode_with_a_negative_input_temperature_warns_nothing(self, tmp_path):
        # In a fresh process any warning would reach stderr; only the
        # endpoint line may.
        out = design_nor(tmp_path)
        src = str(Path(tn.__file__).parents[1])
        run = subprocess.run(
            [sys.executable, "-m", "thermoneuron.cli", "simulate", out, "--inputs", "0",
             "-1e-3", "--mode", "full", "--tau", "1e3", "--out", str(tmp_path / "run.csv")],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
        assert run.returncode == 0
        err = run.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("endpoint beta_z = ")

    def test_quasi_mode_has_no_register_cap(self, tmp_path, capsys):
        # An 11-input neuron: 13 collector qubits, past MAX_QUBITS.  The
        # quasi-static run needs no register; the full run still does.
        path = str(tmp_path / "wide.json")
        spec = tn.weights_to_neuron([-5.5] + [1.0] * 11, tn.DesignConfig())
        tn.dump_machine(path, spec, {"weights": [], "alpha": 20.0, "eps_z": 0.1,
                                     "seed": 0, "tool_version": tn.TOOL_VERSION})
        argv = ["simulate", path, "--inputs", *["0"] * 11, "--tau", "1e3"]
        assert main(argv + ["--mode", "quasi"]) == 0
        capsys.readouterr()
        assert main(argv + ["--mode", "full"]) == 2
        assert capsys.readouterr().err == "error: register capped at 12 qubits, got 13\n"

    def test_zero_horizon_single_row(self, tmp_path, capsys):
        out = str(tmp_path / "not.json")
        main(["design", "--gate", "NOT", "--out", out])
        capsys.readouterr()
        csv_path = str(tmp_path / "traj.csv")
        assert main(["simulate", out, "--inputs", "1", "--tau", "0",
                     "--out", csv_path]) == 0
        lines = Path(csv_path).read_text().splitlines()
        assert len(lines) == 3  # units comment + header + one sample

    def test_full_mode_smoke(self, tmp_path, capsys):
        out = str(tmp_path / "not.json")
        main(["design", "--gate", "NOT", "--alpha", "5", "--out", out])
        capsys.readouterr()
        csv_path = str(tmp_path / "full.csv")
        code = main(["simulate", out, "--inputs", "0", "--tau", "1e4",
                     "--mode", "full", "--out", csv_path])
        assert code == 0
        assert len(Path(csv_path).read_text().splitlines()) > 10

    def test_full_mode_runs_a_machine_steady_accepts(self, tmp_path, capsys):
        # A hand-edited NOT machine file with eps[0] off resonance by 5e-10,
        # within RESONANCE_TOL: both commands run it.
        doc = machine_to_document(tn.preset("NOT"), PROVENANCE)
        doc["spec"]["eps"][0] += 5e-10
        path = tmp_path / "machine.json"
        path.write_text(json.dumps(doc))
        for command in (["steady", "--inputs", "1"],
                        ["simulate", "--inputs", "1", "--tau", "1e4", "--mode", "full",
                         "--out", str(tmp_path / "full.csv")]):
            assert main([command[0], str(path), *command[1:]]) == 0
            assert "error" not in capsys.readouterr().err

    def test_solver_failure_exits_2_with_one_line(self, tmp_path, capsys,
                                                  monkeypatch):
        import scipy.integrate

        class Failed:
            success = False
            message = "Required step size is less than spacing between numbers."

        monkeypatch.setattr(scipy.integrate, "solve_ivp", lambda *a, **k: Failed())
        out = str(tmp_path / "not.json")
        main(["design", "--gate", "NOT", "--out", out])
        capsys.readouterr()
        code = main(["simulate", out, "--inputs", "0", "--tau", "1e4",
                     "--mode", "full", "--out", str(tmp_path / "full.csv")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: full integration failed")
        assert "between numbers; consider rescaling" in err[0]

    @pytest.mark.parametrize("mode, what", [("quasi", "quasi-static"), ("full", "full")])
    def test_lsoda_failure_exits_2_with_its_reason_on_one_line(self, tmp_path, capsys,
                                                                monkeypatch, mode, what):
        # g_z off by +-1e6 after 50 calls makes LSODA's corrector fail for
        # real; LSODA gives its reason only as a warning, which must not leak.
        out = str(tmp_path / "nor.json")
        main(["design", "--gate", "NOR", "--out", out])
        capsys.readouterr()
        g_z, calls = tn.NeuronSpec.g_z, itertools.count(1)

        def perturbed(spec, beta):
            n = next(calls)
            return g_z(spec, beta) + (0.0 if n <= 50 else 1e6 if n % 2 else -1e6)

        monkeypatch.setattr(tn.NeuronSpec, "g_z", perturbed)
        with warnings.catch_warnings(record=True) as leaked:
            warnings.simplefilter("always")
            code = main(["simulate", out, "--inputs", "1", "0", "--tau", "1e8",
                         "--mode", mode, "--out", str(tmp_path / "run.csv")])
        assert code == 2 and leaked == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {what} integration failed: lsoda: "
                                 "Repeated convergence failures")
        assert ".;" not in err[0]
        if mode == "full":
            assert err[0].endswith("tolerances); consider rescaling the reservoir "
                                   "capacity C to soften the slow time scale")


class TestSweep:
    def test_not_transfer_curve_monotone(self, tmp_path, capsys):
        out = str(tmp_path / "not.json")
        main(["design", "--gate", "NOT", "--alpha", "20", "--out", out])
        capsys.readouterr()
        csv_path = str(tmp_path / "curve.csv")
        code = main(["sweep", out, "--grid", "0:1:101", "--out", csv_path])
        assert code == 0
        lines = Path(csv_path).read_text().splitlines()
        assert lines[1] == "beta_1,beta_v,beta_z_inf,decoded"
        values = [float(line.split(",")[2]) for line in lines[2:]]
        assert len(values) == 101
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_factorial_grid_for_two_inputs(self, tmp_path, capsys):
        out = design_nor(tmp_path)
        capsys.readouterr()
        csv_path = str(tmp_path / "surface.csv")
        assert main(["sweep", out, "--grid", "0:1:5", "--out", csv_path]) == 0
        lines = Path(csv_path).read_text().splitlines()
        assert len(lines) == 2 + 25

    def test_corner_decode_pattern_matches_nor(self, tmp_path, capsys):
        out = design_nor(tmp_path)
        capsys.readouterr()
        csv_path = str(tmp_path / "surface.csv")
        main(["sweep", out, "--grid", "0:1:2", "--band", "additive",
              "--out", csv_path])
        rows = [line.split(",") for line in
                Path(csv_path).read_text().splitlines()[2:]]
        decoded = {(float(r[0]), float(r[1])): r[4] for r in rows}
        assert decoded[(0.0, 0.0)] == "1"
        assert decoded[(0.0, 1.0)] == "0"
        assert decoded[(1.0, 0.0)] == "0"
        assert decoded[(1.0, 1.0)] == "0"

    def test_network_machine_sweeps_too(self, xor_table, tmp_path, capsys):
        out = str(tmp_path / "xor.json")
        main(["design", "--table", xor_table, "--layers", "2,1", "--seed", "7",
              "--out", out])
        capsys.readouterr()
        csv_path = str(tmp_path / "net.csv")
        assert main(["sweep", out, "--grid", "0:1:3", "--band", "additive",
                     "--out", csv_path]) == 0
        lines = Path(csv_path).read_text().splitlines()
        assert lines[1] == "beta_1,beta_2,beta_z_inf,decoded"
        assert len(lines) == 2 + 9

    def test_empty_grid_header_only(self, tmp_path, capsys):
        out = str(tmp_path / "not.json")
        main(["design", "--gate", "NOT", "--out", out])
        capsys.readouterr()
        csv_path = str(tmp_path / "empty.csv")
        assert main(["sweep", out, "--grid", "0:1:0", "--out", csv_path]) == 0
        lines = Path(csv_path).read_text().splitlines()
        assert len(lines) == 2

    def test_byte_identical_reruns(self, tmp_path, capsys):
        out = design_nor(tmp_path)
        capsys.readouterr()
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        main(["sweep", out, "--grid", "0:1:11", "--out", a])
        main(["sweep", out, "--grid", "0:1:11", "--out", b])
        assert Path(a).read_bytes() == Path(b).read_bytes()


class TestTradeoff:
    def test_monotone_rows(self, tmp_path, capsys):
        csv_path = str(tmp_path / "trade.csv")
        code = main(["tradeoff", "--gate", "NOT", "--knob", "eps1",
                     "--grid", "2,5,10", "--tau", "1e6", "--out", csv_path])
        assert code == 0
        rows = [line.split(",") for line in
                Path(csv_path).read_text().splitlines()[2:]]
        sigmas = [float(r[1]) for r in rows]
        xis = [float(r[2]) for r in rows]
        assert sigmas[0] < sigmas[1] < sigmas[2]
        assert xis[0] > xis[1] > xis[2]

    def test_single_point_grid(self, tmp_path):
        csv_path = str(tmp_path / "one.csv")
        assert main(["tradeoff", "--gate", "NOT", "--grid", "5",
                     "--tau", "1e5", "--out", csv_path]) == 0
        assert len(Path(csv_path).read_text().splitlines()) == 3

    def test_inset_emits_dissipation_curves(self, tmp_path, capsys):
        csv_path = str(tmp_path / "trade.csv")
        assert main(["tradeoff", "--gate", "NOT", "--grid", "5",
                     "--tau", "1e5", "--inset", "5",
                     "--out", csv_path]) == 0
        inset = Path(csv_path + ".inset.csv").read_text().splitlines()
        assert inset[1] == "eps1,beta_1,sigma"
        assert len(inset) == 2 + 5

    def test_byte_identical_reruns(self, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        args = ["tradeoff", "--gate", "NOT", "--grid", "2,5", "--tau", "1e6"]
        main(args + ["--out", a])
        main(args + ["--out", b])
        assert Path(a).read_bytes() == Path(b).read_bytes()


class TestVerify:
    def test_maj3_all_rows_pass(self, tmp_path, capsys):
        out = str(tmp_path / "maj.json")
        main(["design", "--gate", "MAJ3", "--alpha", "10", "--out", out])
        capsys.readouterr()
        code = main(["verify", out, "--gate", "MAJ3"])
        assert code == 0
        assert "8/8 rows correct" in capsys.readouterr().out

    @pytest.mark.filterwarnings("ignore:weak time-scale separation")
    def test_weak_steepness_yields_invalid_rows(self, tmp_path, capsys):
        out = str(tmp_path / "weak.json")
        main(["design", "--gate", "NOR", "--alpha", "0.1", "--out", out])
        capsys.readouterr()
        code = main(["verify", out, "--gate", "NOR"])
        assert code == 1
        printed = capsys.readouterr().out
        assert "failed rows" in printed

    def test_missing_table_exits_2(self, tmp_path, capsys):
        out = design_nor(tmp_path)
        capsys.readouterr()
        assert main(["verify", out, "--table", str(tmp_path / "no.tt")]) == 2

    def test_misplaced_colon_in_table_exits_2_with_one_line(self, tmp_path, capsys):
        out = design_nor(tmp_path)
        table = tmp_path / "bad.tt"
        table.write_text("0 0 : 1\n0 1 : 0\n1 0 : 0\n1 : 1 0\n")
        capsys.readouterr()
        assert main(["verify", out, "--table", str(table)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: argument --table: truth table line 4: "
                              "expected 'bits : output'")

    def test_incomplete_wide_table_exits_2_with_one_short_line(self, tmp_path, capsys):
        out = design_nor(tmp_path)
        table = tmp_path / "wide.tt"
        table.write_text("0 " * 39 + "1 : 1\n")
        capsys.readouterr()
        assert main(["verify", out, "--table", str(table)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "incomplete" in err and len(err) < 200


def row_loop_verify_stdout(machine, table, enc, width):
    """`verify`'s stdout as its own per-row loop wrote it: encode each row's
    bits, then decode the output and take its Gaussian band probabilities."""
    finals = ch.machine_response(
        machine, [[tn.encode(b, machine) for b in bits] for bits, _ in table.rows()])
    lines, failures = [], []
    for (bits, expected), final in zip(table.rows(), finals.tolist()):
        got = int(tn.decode_array(final, enc, machine))
        p0, p1, _ = ch.gaussian_band_probs(final, width, enc, machine)
        status = "ok" if got == expected else "FAIL"
        shown = got if got >= 0 else "invalid"
        lines.append(f"row {' '.join(map(str, bits))} -> beta_z = {final: .6f}  "
                     f"decoded = {shown!s:7}  expected = {expected}  "
                     f"p(error) = {(p0, p1)[1 - expected]:.3e}  [{status}]")
        if got != expected:
            failures.append(bits)
    total = 1 << table.n
    lines.append(f"{total - len(failures)}/{total} rows correct")
    if failures:
        lines.append("failed rows: " + "; ".join(" ".join(map(str, b)) for b in failures))
    return "\n".join(lines) + "\n"


def test_gate_names_match_in_any_case(tmp_path, capsys):
    # As `verify --gate`, `preset` and `gate_table` already did.
    lower, upper = tmp_path / "lower.json", tmp_path / "upper.json"
    assert main(["design", "--gate", "nor", "--out", str(lower)]) == 0
    assert main(["design", "--gate", "NOR", "--out", str(upper)]) == 0
    assert lower.read_bytes() == upper.read_bytes()
    capsys.readouterr()
    csv = []
    for gate in ("not", "NOT"):
        assert main(["tradeoff", "--gate", gate, "--grid", "2", "--tau", "0"]) == 0
        csv.append(capsys.readouterr().out)
    assert csv[0] == csv[1] and csv[0].count("\n") == 3


@pytest.mark.filterwarnings("ignore:weak time-scale separation")
@pytest.mark.parametrize("design, table, band, delta, width, code, invalid", [
    (["--gate", "MAJ3", "--alpha", "10"], "MAJ3", "additive", 0.1, 0.05, 0, False),
    (["--gate", "NOR", "--alpha", "0.5"], "NOR", "additive", 0.1, 0.05, 1, True),
    (["--gate", "NOR", "--alpha", "0.5"], "NOR", "multiplicative", 0.1, 0.05, 1, True),
    (["--gate", "NOR"], "AND", "multiplicative", 0.3, 0.05, 1, True),
    (["--table", "T", "--layers", "2,1", "--seed", "7"], "T", "additive", 0.1, 0.05, 0, False),
    (["--gate", "NOT"], "NOT", "additive", 0.1, 1e300, 0, False),
])
def test_verify_stdout_equals_the_row_loop(design, table, band, delta, width, code, invalid,
                                           xor_table, tmp_path, capsys):
    out = str(tmp_path / "m.json")
    assert main(["design", *[xor_table if a == "T" else a for a in design], "--out", out]) == 0
    capsys.readouterr()
    source = ["--table", xor_table] if table == "T" else ["--gate", table]
    assert main(["verify", out, *source, "--band", band, "--delta", str(delta),
                 "--C", str(width)]) == code
    got = capsys.readouterr().out
    enc = tn.Encoding(delta=delta, band=band)
    truth = tn.TruthTable.from_text(XOR_TT) if table == "T" else tn.gate_table(table)
    assert got == row_loop_verify_stdout(load_machine(out)[0], truth, enc, width)
    assert ("decoded = invalid" in got) == invalid


@pytest.mark.filterwarnings("ignore:weak time-scale separation")
@pytest.mark.parametrize("band", ["additive", "multiplicative"])
@pytest.mark.parametrize("alpha", [0.5, 20.0])
def test_steady_and_verify_decode_alike(alpha, band, tmp_path, capsys):
    # At each row, steady's decoded field (0, 1 or "invalid") is verify's
    # decoded column.  The weak NOR decodes every row invalid under both
    # bands; the steep one gives 1, invalid and 0 under the multiplicative.
    out = design_nor(tmp_path, alpha=alpha)
    capsys.readouterr()
    main(["verify", out, "--gate", "NOR", "--band", band])
    shown = re.findall(r"decoded = (\S+)", capsys.readouterr().out)
    assert len(shown) == 4
    decoded = []
    for bits, _ in tn.gate_table("NOR").rows():
        assert main(["steady", out, "--inputs", *map(str, bits), "--band", band,
                     "--json"]) == 0
        decoded.append(json.loads(capsys.readouterr().out)["decoded"])
    assert decoded == [s if s == "invalid" else int(s) for s in shown]


class TestMachineFiles:
    def test_round_trip_canonical(self, tmp_path):
        out = design_nor(tmp_path)
        machine, provenance = load_machine(out)
        doc = machine_to_document(machine, provenance)
        machine2, provenance2 = machine_from_document(doc)
        assert machine == machine2 and provenance == provenance2

    def test_neuron_fields(self):
        # The file format: NeuronSpec's dataclass fields plus the input count.
        assert sorted(neuron_to_dict(tn.preset("NOR"))) == [
            "beta0", "beta_cold", "beta_hot", "beta_r", "capacity", "chi", "eps",
            "eps_z", "gamma", "h", "mu", "mu_prime", "n"]

    def test_unknown_fields_rejected(self, tmp_path):
        out = design_nor(tmp_path)
        doc = json.loads(Path(out).read_text())
        doc["spec"]["bogus"] = 1
        with pytest.raises(ConfigError, match="unknown"):
            machine_from_document(doc)
        with pytest.raises(ConfigError, match="cannot serialize object"):
            machine_to_document(object(), PROVENANCE)

    @pytest.mark.parametrize("field", ["weights", "alpha", "eps_z", "seed", "tool_version"])
    def test_writer_refuses_provenance_missing_a_field(self, field):
        provenance = {k: v for k, v in PROVENANCE.items() if k != field}
        with pytest.raises(ConfigError, match=re.escape(
                f"provenance missing fields: ['{field}']")):
            machine_to_document(tn.preset("NOR"), provenance)

    def test_reader_refuses_other_units(self):
        with pytest.raises(ConfigError, match=re.escape(
                "machine file field 'units' must be 'natural (k_B = hbar = 1)'")):
            machine_from_document(nor_doc() | {"units": "SI (kelvin, joule)"})

    def test_design_deterministic_bytes(self, tmp_path, capsys):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        main(["design", "--gate", "NOR", "--alpha", "20", "--seed", "5",
              "--out", a])
        main(["design", "--gate", "NOR", "--alpha", "20", "--seed", "5",
              "--out", b])
        assert Path(a).read_bytes() == Path(b).read_bytes()


PROVENANCE = {"weights": [], "alpha": 20.0, "eps_z": 0.1, "seed": 0,
              "tool_version": tn.TOOL_VERSION}


def nor_doc():
    return machine_to_document(tn.preset("NOR"), PROVENANCE)


def network_doc(*drop):
    """A one-neuron NOR network document with the field at path ``drop`` removed."""
    net = tn.NetworkSpec(n=2, layers=((tn.preset("NOR"),),),
                         wiring=(((0, 1),),))
    doc = machine_to_document(net, PROVENANCE)
    node = doc["spec"]
    for key in drop[:-1]:
        node = node[key]
    del node[drop[-1]]
    return doc


def nor_entry(wiring=(0, 1), **fields):
    """A network layer entry of the NOR unit, with its spec ``fields`` set."""
    return {"neuron": nor_doc()["spec"] | fields, "wiring": list(wiring)}


def network_of(*layers):
    """``network_doc()``'s document with these layers of entries in its spec."""
    doc = network_doc("layers")
    doc["spec"]["layers"] = list(layers)
    return doc


def network_layers(value):
    """``network_doc()``'s document with ``value`` as its spec's layers."""
    doc = network_doc("layers")
    doc["spec"]["layers"] = value
    return doc


def maj3_doc():
    return machine_to_document(tn.preset("MAJ3"), PROVENANCE)


def bad_eps_doc():
    doc = nor_doc()
    doc["spec"]["eps"] = "abc"
    return doc


def one_input_doc(key, value):
    """The one-input neuron (gaps 2, 1) with spec field ``key`` set to ``value``;
    each value below is read as a valid spec by plain coercion."""
    doc = machine_to_document(tn.build_neuron((2.0, 1.0), (0, 1), 1.0, 1.0), PROVENANCE)
    doc["spec"][key] = value
    return doc


def one_input_network_doc(key, value):
    """A network of that neuron, with ``key`` set in its spec or its one entry."""
    net = tn.NetworkSpec(n=1, layers=((tn.build_neuron((2.0, 1.0), (0, 1), 1.0, 1.0),),),
                         wiring=(((0,),),))
    doc = machine_to_document(net, PROVENANCE)
    (doc["spec"] if key == "n_inputs" else doc["spec"]["layers"][0][0])[key] = value
    return doc


STEADY = ["steady", "M", "--inputs", "0", "0"]
STEADY_1 = ["steady", "M", "--inputs", "0"]
RETYPED = {"spec-eps-string": ("eps", "21"), "spec-h-string": ("h", "01"),
           "spec-h-fraction-above": ("h", [0, 1.7]), "spec-h-fraction-below": ("h", [0.9, 1]),
           "spec-chi-boolean": ("chi", True), "spec-n-boolean": ("n", True),
           "spec-mu-integer-overflows-float": ("mu", 10 ** 400)}
MALFORMED = {
    "steady-inputs-not-a-number": (nor_doc, ["steady", "M", "--inputs", "abc", "0"]),
    "steady-inputs-nan": (nor_doc, ["steady", "M", "--inputs", "nan", "0"]),
    "simulate-inputs-not-a-number": (nor_doc, ["simulate", "M", "--inputs", "0", "x"]),
    "simulate-inputs-nan": (nor_doc, ["simulate", "M", "--inputs", "0", "NaN"]),
    "simulate-negative-tau": (nor_doc, ["simulate", "M", "--inputs", "0", "0",
                                        "--tau", "-5"]),
    "grid-count-not-an-integer": (nor_doc, ["sweep", "M", "--grid", "0:1:x"]),
    "grid-two-fields": (nor_doc, ["sweep", "M", "--grid", "0:1"]),
    "grid-list-not-numbers": (nor_doc, ["sweep", "M", "--grid", "a,b"]),
    "grid-nan-entry": (nor_doc, ["sweep", "M", "--grid", "0,nan,1"]),
    "grid-nan-bound": (nor_doc, ["sweep", "M", "--grid", "0:nan:3"]),
    "grid-infinite-entry": (nor_doc, ["sweep", "M", "--grid", "0,inf"]),
    "grid-bounds-overflow": (nor_doc, ["sweep", "M", "--grid=-1e308:1e308:3"]),
    "grid-beta-v-inf-minus-inf": (nor_doc, ["sweep", "M", "--grid", "1e308;-1e308"]),
    "steady-inputs-inf": (nor_doc, ["steady", "M", "--inputs", "inf", "0"]),
    "sweep-unknown-band": (nor_doc, ["sweep", "M", "--grid", "0:1:2", "--band", "x"]),
    "sweep-delta-not-a-number": (nor_doc, ["sweep", "M", "--grid", "0:1:2",
                                           "--delta", "abc"]),
    "network-without-layers": (lambda: network_doc("layers"), STEADY),
    "machine-file-a-list": (lambda: [nor_doc()], STEADY),
    "machine-file-without-kind": (lambda: {k: v for k, v in nor_doc().items() if k != "kind"},
                                  STEADY),
    "machine-kind-perceptron": (lambda: nor_doc() | {"kind": "perceptron"}, STEADY),
    "machine-file-other-units": (lambda: nor_doc() | {"units": "SI (kelvin, joule)"}, STEADY),
    "machine-file-without-units": (
        lambda: {k: v for k, v in nor_doc().items() if k != "units"}, STEADY),
    "provenance-missing-a-field": (lambda: nor_doc() | {"provenance": {
        k: v for k, v in PROVENANCE.items() if k != "seed"}}, STEADY),
    "provenance-eps-z-not-a-number": (
        lambda: nor_doc() | {"provenance": PROVENANCE | {"eps_z": "0.1"}}, STEADY),
    "provenance-alpha-not-a-number": (
        lambda: nor_doc() | {"provenance": PROVENANCE | {"alpha": "twenty"}}, STEADY),
    "provenance-seed-not-an-integer": (
        lambda: nor_doc() | {"provenance": PROVENANCE | {"seed": -3.5}}, STEADY),
    "provenance-tool-version-not-a-string": (
        lambda: nor_doc() | {"provenance": PROVENANCE | {"tool_version": 9}}, STEADY),
    "provenance-weights-not-a-list": (
        lambda: nor_doc() | {"provenance": PROVENANCE | {"weights": "x"}}, STEADY),
    "provenance-weights-leaf-not-a-number": (
        lambda: nor_doc() | {"provenance": PROVENANCE | {"weights": [[[0.5, True]]]}},
        STEADY),
    "neuron-spec-a-list": (lambda: nor_doc() | {"spec": [nor_doc()["spec"]]}, STEADY),
    "network-layers-not-a-list": (lambda: network_layers(5), STEADY),
    "network-layer-not-a-list": (lambda: network_layers([5]), STEADY),
    "network-layer-entry-not-an-object": (lambda: network_layers([[5]]), STEADY),
    "network-wiring-out-of-range": (lambda: network_of([nor_entry((0, 2))]), STEADY),
    "network-units-on-different-rails": (lambda: network_of(
        [nor_entry(), nor_entry(beta_cold=2.0)], [nor_entry()]), STEADY),
    "network-empty-layer": (lambda: network_of([nor_entry()], []), STEADY),
    "network-no-layers": (lambda: network_layers([]), STEADY),
    "network-n-inputs-zero": (lambda: one_input_network_doc("n_inputs", 0), STEADY_1),
    "network-arity-differs-from-wiring": (lambda: network_of([nor_entry((0,))]), STEADY),
    "network-two-output-units": (lambda: network_of([nor_entry(), nor_entry()]), STEADY),
    "network-without-n-inputs": (lambda: network_doc("n_inputs"), STEADY),
    "layer-entry-without-neuron": (lambda: network_doc("layers", 0, 0, "neuron"), STEADY),
    "layer-entry-without-wiring": (lambda: network_doc("layers", 0, 0, "wiring"), STEADY),
    "spec-field-wrong-type": (bad_eps_doc, STEADY),
    "simulate-tau-inf": (nor_doc, ["simulate", "M", "--inputs", "1", "0",
                                   "--tau", "inf"]),
    "simulate-tau-overflows": (nor_doc, ["simulate", "M", "--inputs", "1", "0",
                                         "--tau", "1e400"]),
    "tradeoff-tau-inf": (nor_doc, ["tradeoff", "--gate", "NOT", "--grid", "2",
                                   "--tau", "inf"]),
    "simulate-beta-z0-nan": (nor_doc, ["simulate", "M", "--inputs", "1", "0",
                                       "--beta-z0", "nan", "--tau", "10"]),
    "simulate-full-beta-z0-inf": (nor_doc, ["simulate", "M", "--inputs", "1", "0",
                                            "--beta-z0", "inf", "--tau", "10",
                                            "--mode", "full"]),
    "design-eps-z-inf": (nor_doc, ["design", "--gate", "NOR", "--eps-z", "inf"]),
    "tradeoff-negative-inset": (nor_doc, ["tradeoff", "--gate", "NOT", "--grid", "2",
                                          "--inset", "-3", "--tau", "10"]),
    "design-negative-seed": (nor_doc, ["design", "--table", "T", "--layers", "2,1",
                                       "--seed", "-1"]),
    "verify-without-table-or-gate": (nor_doc, ["verify", "M"]),
    "verify-unknown-gate": (nor_doc, ["verify", "M", "--gate", "FOO"]),
    "grid-count-too-large": (nor_doc, ["sweep", "M", "--grid", "0:1:10000000000000000"]),
    "grid-list-product-too-large": (nor_doc, ["sweep", "M", "--grid", "0:1:1001;0:1:1000"]),
    "grid-for-every-input-too-large": (nor_doc, ["sweep", "M", "--grid", "0:1:1001"]),
    "sweep-more-inputs-than-meshgrid-axes": (lambda: machine_to_document(
        tn.weights_to_neuron([-32.5] + [1.0] * 33, tn.DesignConfig(alpha=1.0)), PROVENANCE),
        ["sweep", "M", "--grid", "0"]),
    "sweep-network-n-inputs-overflows": (
        lambda: one_input_network_doc("n_inputs", 10 ** 400), ["sweep", "M", "--grid", "0"]),
    "tradeoff-grid-too-large": (nor_doc, ["tradeoff", "--gate", "NOT",
                                          "--grid", "1:2:1000001"]),
    "tradeoff-eps1-zero": (nor_doc, ["tradeoff", "--gate", "NOT", "--knob", "eps1",
                                     "--grid", "0"]),
    "tradeoff-eps1-negative": (nor_doc, ["tradeoff", "--gate", "NOT", "--knob", "eps1",
                                         "--grid=-5"]),
    "simulate-full-input-overflows": (maj3_doc, ["simulate", "M", "--inputs", "0", "1",
                                                 "1e308", "--tau", "10", "--mode", "full"]),
    "simulate-quasi-input-overflows": (maj3_doc, ["simulate", "M", "--inputs", "0", "1",
                                                  "1e308", "--tau", "10"]),
    "simulate-full-beta-z0-overflows": (maj3_doc, ["simulate", "M", "--inputs", "0", "1",
                                                   "1", "--beta-z0", "1e308", "--tau", "10",
                                                   "--mode", "full"]),
    "simulate-quasi-beta-z0-overflows": (maj3_doc, ["simulate", "M", "--inputs", "0", "1",
                                                    "1", "--beta-z0", "1e308", "--tau", "10"]),
    "design-layer-too-wide": (nor_doc, ["design", "--table", "T",
                                        "--layers", "1000000000000000,1"]),
    "design-too-many-layers": (nor_doc, ["design", "--table", "T",
                                         "--layers", "2,2,2,2,2,2,2,2,1"]),
    "design-layers-not-integers": (nor_doc, ["design", "--table", "T", "--layers", "a,1"]),
    "design-layer-of-no-units": (nor_doc, ["design", "--table", "T", "--layers", "0,1"]),
    "tradeoff-inset-too-large": (nor_doc, ["tradeoff", "--gate", "NOT", "--grid", "2",
                                           "--inset", "1000000000000000"]),
    "tradeoff-seed-removed": (nor_doc, ["tradeoff", "--gate", "NOT", "--grid", "2",
                                        "--seed", "3", "--tau", "10"]),
    "provenance-not-an-object": (lambda: nor_doc() | {"provenance": 5}, STEADY),
    "design-gate-alpha-overflows": (nor_doc, ["design", "--gate", "NOR", "--alpha", "1e308"]),
    "design-table-alpha-overflows": (nor_doc, ["design", "--table", "N", "--alpha", "1e308"]),
    "tradeoff-alpha-overflows": (nor_doc, ["tradeoff", "--gate", "NOR", "--knob", "alpha",
                                           "--grid", "1e308"]),
    "tradeoff-eps1-swamps-eps-z": (nor_doc, ["tradeoff", "--gate", "NOT", "--knob", "eps1",
                                             "--grid", "1e308"]),
    "tradeoff-negative-tau": (nor_doc, ["tradeoff", "--gate", "NOT", "--knob", "eps1",
                                        "--grid", "2,5", "--tau", "-5"]),
    "design-gate-alpha-past-calibration": (nor_doc, ["design", "--gate", "NOR",
                                                     "--alpha", "7100"]),
    "design-layers-alpha-past-calibration": (nor_doc, ["design", "--table", "T",
                                                       "--layers", "2,1", "--seed", "7",
                                                       "--alpha", "7100"]),
    "design-table-alpha-below-calibration": (nor_doc, ["design", "--table", "N",
                                                       "--alpha", "1e-150"]),
    "tradeoff-alpha-below-calibration": (nor_doc, ["tradeoff", "--gate", "NOT", "--knob",
                                                   "alpha", "--grid", "1e-200"]),
    "design-eps-z-swamped-by-alpha-w": (nor_doc, ["design", "--gate", "NOR",
                                                  "--eps-z", "1e-200"]),
    **{case: (lambda k=key, v=value: one_input_doc(k, v), STEADY_1)
       for case, (key, value) in RETYPED.items()},
    **{case: (lambda k=key, v=value: one_input_network_doc(k, v), STEADY_1)
       for case, (key, value) in {"network-wiring-string": ("wiring", "0"),
                                  "network-wiring-fraction": ("wiring", [0.9]),
                                  "network-n-inputs-float": ("n_inputs", 1.0)}.items()},
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2_with_one_line(case, xor_table, tmp_path, capsys):
    make_doc, argv = MALFORMED[case]
    path = tmp_path / "machine.json"
    path.write_text(json.dumps(make_doc()))
    nor_table = tmp_path / "nor.tt"
    nor_table.write_text(NOR_TT)
    argv = [{"M": str(path), "T": xor_table, "N": str(nor_table)}.get(a, a) for a in argv]
    out = tmp_path / "out.csv"
    # `steady` and `verify` have no --out.
    if argv[0] not in ("steady", "verify"):
        argv += ["--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("argv", [["simulate", "M", "--inputs", "0", "--mode", "quasi"],
                                  ["simulate", "M", "--inputs", "0", "--mode", "full"],
                                  ["tradeoff", "--gate", "NOT", "--grid", "2,5"]],
                         ids=["simulate-quasi", "simulate-full", "tradeoff"])
@pytest.mark.parametrize("tau", ["5e-324", "1e-322", "1e-200"])
def test_tau_below_the_floor_exits_2_naming_tau_and_the_floor(argv, tau, tmp_path, capsys):
    # Below about 1e-150 the run never finished (LSODA spent every RHS
    # call), and below about 1e-322 it raised from the sample grid.
    path = tmp_path / "not.json"
    path.write_text(json.dumps(machine_to_document(tn.preset("NOT"), PROVENANCE)))
    out = tmp_path / "out.csv"
    argv = [str(path) if a == "M" else a for a in argv] + ["--tau", tau, "--out", str(out)]
    assert main(argv) == 2
    want = f"error: tau must be 0 or at least 1e-100, got {float(tau)!r}\n"
    assert capsys.readouterr().err == want
    assert not out.exists()


def test_machine_file_numbers_may_be_integers(tmp_path, capsys):
    doc = one_input_doc("eps", [2, 1])
    doc["spec"]["chi"] = 1
    path = tmp_path / "machine.json"
    path.write_text(json.dumps(doc))
    assert main(["steady", str(path), "--inputs", "0", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    want = tn.steady_output(tn.build_neuron((2.0, 1.0), (0, 1), 1.0, 1.0), [0.0])
    assert payload["beta_z_inf"] == want.beta_z_inf


def test_tradeoff_inset_is_capped_before_the_sweep(monkeypatch, tmp_path, capsys):
    # 1000 grid points x 1001 inset points is refused before any machine is
    # evaluated, although each count alone is within MAX_GRID_POINTS.
    monkeypatch.setattr(ch, "tradeoff_sweep", lambda *a, **k: pytest.fail("the sweep ran"))
    out = tmp_path / "t.csv"
    assert main(["tradeoff", "--gate", "NOT", "--grid", "1:2:1000", "--inset",
                 "1001", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: argument --inset: the inset (grid x inset points) "
                   "has 1001000 points, more than 1000000"]
    assert not out.exists()


def test_grid_parts_past_the_bound_are_not_built(monkeypatch, tmp_path, capsys):
    # The first two parts of grid-list-product-too-large are already past
    # MAX_GRID_POINTS, so the million-point parts after them are never built.
    parse, built = cli._parse_grid, []
    monkeypatch.setattr(cli, "_parse_grid", lambda spec: built.append(spec) or parse(spec))
    grid = "0:1:1001;0:1:1000;0:1:1000000;0:1:1000000"
    assert main(["sweep", "M", "--grid", grid]) == 2
    assert built == ["0:1:1001", "0:1:1000"]
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: argument --grid: grid {grid!r} up to part 2 has 1001000 "
                   "points, more than 1000000"]


@pytest.mark.parametrize("command, module, evaluator", [
    (["steady", "M", "--inputs", "0", "0"], "cli", "steady_output"),
    (["sweep", "M", "--grid", "0:1:3"], "cli", "steady_response"),
    (["verify", "M", "--gate", "NOR"], "channel", "conditional_outputs"),
    (["tradeoff", "--grid", "1,2"], "channel", "tradeoff_sweep"),
], ids=["steady", "sweep", "verify", "tradeoff"])
def test_overlapping_bands_exit_2_before_any_evaluation(command, module, evaluator,
                                                       monkeypatch, tmp_path, capsys):
    # The bands overlap on every machine's rails; the command says so before
    # it evaluates one.
    path = design_nor(tmp_path)
    capsys.readouterr()
    target = cli if module == "cli" else ch
    monkeypatch.setattr(target, evaluator, lambda *a, **k: pytest.fail("evaluated"))
    argv = [path if a == "M" else a for a in command]
    assert main([*argv, "--delta", "0.6", "--band", "additive"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: decoding bands overlap")


# json.dumps cannot write these files, so MALFORMED cannot hold them.
@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000,
                                     b"1" * 5000],
                         ids=["not-utf8", "nested-past-the-recursion-limit",
                              "integer-of-5000-digits"])
def test_unreadable_machine_file_exits_2(content, tmp_path, capsys):
    path = tmp_path / "machine.json"
    path.write_bytes(content)
    assert main(["steady", str(path), "--inputs", "0"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot read machine file")


def test_input_count_error_names_the_inputs_the_gaps_give(tmp_path, capsys):
    doc = nor_doc()
    doc["spec"]["n"] = 3
    path = tmp_path / "machine.json"
    path.write_text(json.dumps(doc))
    assert main(["steady", str(path), "--inputs", "0", "0"]) == 2
    assert capsys.readouterr().err == ("error: inconsistent input count: n = 3 but "
                                       "3 gaps give 2 inputs\n")


def test_output_path_is_a_directory_exits_2(tmp_path, capsys):
    out = design_nor(tmp_path)
    capsys.readouterr()
    assert main(["sweep", out, "--grid", "0:1:2", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


class TestNegativeNumbers:
    """A negative value in any float form is a value, not an option flag."""

    def test_exponent_form_input(self, tmp_path, capsys):
        out = design_nor(tmp_path)
        capsys.readouterr()
        assert main(["steady", out, "--inputs", "0", "-1e-3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        want = tn.steady_output(load_machine(out)[0], [0.0, -1e-3])
        assert payload["beta_z_inf"] == want.beta_z_inf

    @pytest.mark.parametrize("grid", ["-0.5:1.5:3", "-.5,1.5", "-1e-1:1:2;-2:0:3"])
    def test_space_form_grid_equals_equals_form(self, tmp_path, capsys, grid):
        out = design_nor(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", out, "--grid", grid, "--out", str(a)]) == 0
        assert main(["sweep", out, f"--grid={grid}", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert len(a.read_text().splitlines()) > 2


@pytest.mark.parametrize("capacity", [0.0, -1.0, math.inf, math.nan])
def test_machine_file_capacity_must_be_positive_and_finite(capacity):
    doc = machine_to_document(tn.preset("NOT"), PROVENANCE)
    doc["spec"]["capacity"] = capacity
    with pytest.raises(ConfigError, match="capacity"):
        machine_from_document(json.loads(json.dumps(doc)))


@pytest.mark.parametrize("field", ["chi", "gamma"])
def test_machine_file_without_bath_coupling_exits_2(field, tmp_path, capsys):
    # With chi or gamma at 0 the closed form of `steady` would contradict
    # `simulate --mode full`; the machine file is refused instead.
    doc = machine_to_document(tn.preset("NOT"), PROVENANCE)
    doc["spec"][field] = 0.0
    path = tmp_path / "machine.json"
    path.write_text(json.dumps(doc))
    for command in (["steady", "--inputs", "0"],
                    ["simulate", "--inputs", "0", "--tau", "10", "--mode", "full"]):
        assert main([command[0], str(path), *command[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: malformed neuron spec: {field} must be "
                                "positive, got 0.0\n")


@pytest.fixture(scope="module")
def xor_network_doc(tmp_path_factory):
    """The seed-7 XOR network's machine document, as `design` writes it."""
    root = tmp_path_factory.mktemp("xor")
    (root / "xor.tt").write_text(XOR_TT)
    out = root / "xor.json"
    assert main(["design", "--table", str(root / "xor.tt"), "--layers", "2,1",
                 "--seed", "7", "--out", str(out)]) == 0
    return json.loads(out.read_text())


SCALAR_FIELDS = ("beta0", "eps_z", "beta_r", "mu_prime", "chi", "gamma", "mu",
                 "beta_hot", "beta_cold", "capacity")


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "0", "-1"])
@pytest.mark.parametrize("field", SCALAR_FIELDS)
@pytest.mark.parametrize("kind", ["NOT", "XOR"])
def test_machine_file_values_exit_0_or_2(kind, field, literal, xor_network_doc,
                                         tmp_path, capsys):
    # Each literal is one that json.load accepts; in a network every unit gets it.
    doc = (machine_to_document(tn.preset("NOT"), PROVENANCE) if kind == "NOT"
           else json.loads(json.dumps(xor_network_doc)))
    specs = ([doc["spec"]] if kind == "NOT"
             else [u["neuron"] for layer in doc["spec"]["layers"] for u in layer])
    for spec in specs:
        spec[field] = json.loads(literal)
    path, out = tmp_path / "machine.json", tmp_path / "out.csv"
    path.write_text(json.dumps(doc))
    inputs = ["0"] if kind == "NOT" else ["0", "1"]
    runs = [["steady", "--inputs", *inputs],
            ["simulate", "--inputs", *inputs, "--tau", "10", "--mode", "quasi", "--out", out],
            ["simulate", "--inputs", *inputs, "--tau", "10", "--mode", "full", "--out", out],
            ["sweep", "--grid", "0:1:3", "--out", out],
            ["verify", "--gate", kind]]
    for command, *rest in runs:
        out.unlink(missing_ok=True)
        code = main([command, str(path), *map(str, rest)])
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        if code == 2:
            assert len(err) == 1 and err[0].startswith("error: "), (command, err)
            assert captured.out == "" and not out.exists(), command
        elif code == 1:   # verify's verdict that some rows decode wrong
            assert command == "verify" and err == []
            assert captured.out.splitlines()[-1].startswith("failed rows: ")
        else:
            assert code == 0 and not any(line.startswith("error:") for line in err)


@pytest.mark.parametrize("command", ["steady", "quasi", "full"])
@pytest.mark.parametrize("value", [1e-300, 1e-150, 1e150, 1e300])
@pytest.mark.parametrize("field", ["capacity", "gamma", "chi", "mu", "mu_prime",
                                   "beta0", "beta_r"])
def test_machine_file_scalars_at_the_float_limits(field, value, command, tmp_path, capsys):
    # Under the warning filters of a user's process, where a numpy warning
    # prints rather than raises, every run ends: exit 0, or exit 2 with an
    # error line last and no output file.
    doc = machine_to_document(tn.preset("NOT"), PROVENANCE)
    doc["spec"][field] = value
    path, out = tmp_path / "machine.json", tmp_path / "traj.csv"
    path.write_text(json.dumps(doc))
    argv = (["steady", str(path), "--inputs", "0", "--json"] if command == "steady"
            else ["simulate", str(path), "--inputs", "0", "--tau", "10",
                  "--mode", command, "--out", str(out)])
    with warnings.catch_warnings():
        warnings.resetwarnings()
        code = main(argv)
    err = capsys.readouterr().err.splitlines()
    assert not any("encountered in" in line for line in err), err
    assert code in (0, 2)
    if code == 2:
        assert err[-1].startswith("error: ") and not out.exists(), err


@pytest.mark.parametrize("mode", ["quasi", "full"])
@pytest.mark.parametrize("to_file", [False, True])
def test_simulate_refuses_uncalibrated_machine_before_output(mode, to_file,
                                                             tmp_path, capsys):
    doc = machine_to_document(tn.preset("NOT"), PROVENANCE)
    doc["spec"]["mu_prime"] *= 2.0
    path, out = tmp_path / "machine.json", tmp_path / "traj.csv"
    path.write_text(json.dumps(doc))
    argv = ["simulate", str(path), "--inputs", "0", "--tau", "10", "--mode", mode]
    assert main(argv + (["--out", str(out)] if to_file else [])) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: neuron spec is not calibrated; build it via "
                            "build_neuron() or recalibrate the modulator\n")
    assert captured.out == ""
    assert not out.exists()


def test_network_steady_text_matches_eval_layers(xor_network_doc, tmp_path, capsys):
    path = tmp_path / "xor.json"
    path.write_text(json.dumps(xor_network_doc))
    assert main(["steady", str(path), "--inputs", "0", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    layers = tn.eval_layers(load_machine(path)[0], [[0.0, 1.0]])
    want = [f"layer {li} outputs = " + ", ".join(f"{v:.12g}" for v in outs[0])
            for li, outs in enumerate(layers)]
    assert lines[:-2] == want
    assert lines[-2:] == [f"beta_z_inf = {layers[-1][0, -1]:.12g}", "decoded    = 1"]


def test_commands_read_the_rails_from_the_machine(tmp_path, capsys):
    # A machine file on rails (0.2, 1.5): every command decodes on them and
    # starts a run at their midpoint 0.85; no option or builder restates them.
    rails = (0.2, 1.5)
    spec = on_rails(tn.preset("NOR"), rails)
    path = str(tmp_path / "wide.json")
    tn.dump_machine(path, spec, PROVENANCE)
    assert main(["steady", path, "--inputs", "1.5", "1.5", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    # 0.2 is bit 0 on the machine's rails, and invalid on the default (0, 1).
    assert payload["beta_z_inf"] == pytest.approx(0.2, abs=1e-12)
    assert payload["decoded"] == 0
    assert tn.decode_array(payload["beta_z_inf"], tn.Encoding(band="additive"),
                           tn.preset("NOR")) == -1
    assert main(["verify", path, "--gate", "NOR"]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith("row 0 0 -> beta_z =  1.433679  decoded = 1")
    assert printed[-1] == "4/4 rows correct"
    csv_path = tmp_path / "traj.csv"
    assert main(["simulate", path, "--inputs", "0.2", "0.2", "--tau", "1e4",
                 "--out", str(csv_path)]) == 0
    assert csv_path.read_text().splitlines()[2].split(",")[:2] == ["0", "0.85"]
    rows, tau = logic_rows(spec), 1e4
    loop = [tn.evolve_quasi_static(spec, row, 0.85, tau).sigma[-1] for row in rows]
    assert ch.dissipation(spec, rows, tau).tolist() == loop


def test_network_commands_read_the_rails_from_its_units(tmp_path, capsys):
    unit = on_rails(tn.preset("NOR"), (0.2, 1.5))
    net = tn.NetworkSpec(n=2, layers=((unit,),), wiring=(((0, 1),),))
    path = str(tmp_path / "wide-net.json")
    tn.dump_machine(path, net, PROVENANCE)
    assert main(["steady", path, "--inputs", "0.2", "1.5", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["decoded"] == 0
    assert main(["verify", path, "--gate", "NOR"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "4/4 rows correct"
    assert main(["sweep", path, "--grid", "0.2,1.5", "--band", "additive"]) == 0
    decoded = [line.rsplit(",", 1)[1] for line in capsys.readouterr().out.splitlines()[2:]]
    assert decoded == ["1", "0", "0", "0"]
