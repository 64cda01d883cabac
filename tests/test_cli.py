"""End-to-end CLI contract: exit codes, determinism, file round-trips."""

import json
import math

import pytest

import thermoneuron as tn
from thermoneuron import channel as ch
from thermoneuron.cli import main
from thermoneuron.errors import ConfigError
from thermoneuron.serialize import (load_machine, machine_from_document,
                                    machine_to_document, neuron_to_dict)

XOR_TT = "0 0 : 0\n0 1 : 1\n1 0 : 1\n1 1 : 0\n"


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
            final = tn.eval_network(machine, betas).final
            decoded = 0 if final <= 0.1 else (1 if final >= 0.9 else None)
            assert decoded == want

    def test_missing_table_exits_2(self, tmp_path):
        code = main(["design", "--table", str(tmp_path / "nope.tt"),
                     "--out", str(tmp_path / "x.json")])
        assert code == 2


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
        lines = open(csv_path).read().splitlines()
        assert lines[1] == "t,beta_z,j_C,j_M,sigma_dot,sigma"

    def test_zero_horizon_single_row(self, tmp_path, capsys):
        out = str(tmp_path / "not.json")
        main(["design", "--gate", "NOT", "--out", out])
        capsys.readouterr()
        csv_path = str(tmp_path / "traj.csv")
        assert main(["simulate", out, "--inputs", "1", "--tau", "0",
                     "--out", csv_path]) == 0
        lines = open(csv_path).read().splitlines()
        assert len(lines) == 3  # units comment + header + one sample

    def test_full_mode_smoke(self, tmp_path, capsys):
        out = str(tmp_path / "not.json")
        main(["design", "--gate", "NOT", "--alpha", "5", "--out", out])
        capsys.readouterr()
        csv_path = str(tmp_path / "full.csv")
        code = main(["simulate", out, "--inputs", "0", "--tau", "1e4",
                     "--mode", "full", "--out", csv_path])
        assert code == 0
        assert len(open(csv_path).read().splitlines()) > 10

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


class TestSweep:
    def test_not_transfer_curve_monotone(self, tmp_path, capsys):
        out = str(tmp_path / "not.json")
        main(["design", "--gate", "NOT", "--alpha", "20", "--out", out])
        capsys.readouterr()
        csv_path = str(tmp_path / "curve.csv")
        code = main(["sweep", out, "--grid", "0:1:101", "--out", csv_path])
        assert code == 0
        lines = open(csv_path).read().splitlines()
        assert lines[1] == "beta_1,beta_v,beta_z_inf,decoded"
        values = [float(line.split(",")[2]) for line in lines[2:]]
        assert len(values) == 101
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_factorial_grid_for_two_inputs(self, tmp_path, capsys):
        out = design_nor(tmp_path)
        capsys.readouterr()
        csv_path = str(tmp_path / "surface.csv")
        assert main(["sweep", out, "--grid", "0:1:5", "--out", csv_path]) == 0
        lines = open(csv_path).read().splitlines()
        assert len(lines) == 2 + 25

    def test_corner_decode_pattern_matches_nor(self, tmp_path, capsys):
        out = design_nor(tmp_path)
        capsys.readouterr()
        csv_path = str(tmp_path / "surface.csv")
        main(["sweep", out, "--grid", "0:1:2", "--band", "additive",
              "--out", csv_path])
        rows = [line.split(",") for line in
                open(csv_path).read().splitlines()[2:]]
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
        lines = open(csv_path).read().splitlines()
        assert lines[1] == "beta_1,beta_2,beta_z_inf,decoded"
        assert len(lines) == 2 + 9

    def test_empty_grid_header_only(self, tmp_path, capsys):
        out = str(tmp_path / "not.json")
        main(["design", "--gate", "NOT", "--out", out])
        capsys.readouterr()
        csv_path = str(tmp_path / "empty.csv")
        assert main(["sweep", out, "--grid", "0:1:0", "--out", csv_path]) == 0
        lines = open(csv_path).read().splitlines()
        assert len(lines) == 2

    def test_byte_identical_reruns(self, tmp_path, capsys):
        out = design_nor(tmp_path)
        capsys.readouterr()
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        main(["sweep", out, "--grid", "0:1:11", "--out", a])
        main(["sweep", out, "--grid", "0:1:11", "--out", b])
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_thread_cap_does_not_change_output(self, tmp_path, capsys,
                                               monkeypatch):
        out = design_nor(tmp_path)
        capsys.readouterr()
        a, b = str(tmp_path / "serial.csv"), str(tmp_path / "threaded.csv")
        main(["sweep", out, "--grid", "0:1:9", "--out", a])
        monkeypatch.setenv("THERMONEURON_THREADS", "4")
        main(["sweep", out, "--grid", "0:1:9", "--out", b])
        assert open(a, "rb").read() == open(b, "rb").read()


class TestTradeoff:
    def test_monotone_rows(self, tmp_path, capsys):
        csv_path = str(tmp_path / "trade.csv")
        code = main(["tradeoff", "--gate", "NOT", "--knob", "eps1",
                     "--grid", "2,5,10", "--tau", "1e6", "--out", csv_path])
        assert code == 0
        rows = [line.split(",") for line in
                open(csv_path).read().splitlines()[2:]]
        sigmas = [float(r[1]) for r in rows]
        xis = [float(r[2]) for r in rows]
        assert sigmas[0] < sigmas[1] < sigmas[2]
        assert xis[0] > xis[1] > xis[2]

    def test_single_point_grid(self, tmp_path):
        csv_path = str(tmp_path / "one.csv")
        assert main(["tradeoff", "--gate", "NOT", "--grid", "5",
                     "--tau", "1e5", "--out", csv_path]) == 0
        assert len(open(csv_path).read().splitlines()) == 3

    def test_inset_emits_dissipation_curves(self, tmp_path, capsys):
        csv_path = str(tmp_path / "trade.csv")
        assert main(["tradeoff", "--gate", "NOT", "--grid", "5",
                     "--tau", "1e5", "--inset", "--inset-points", "5",
                     "--out", csv_path]) == 0
        inset = open(csv_path + ".inset.csv").read().splitlines()
        assert inset[1] == "eps1,beta_1,sigma"
        assert len(inset) == 2 + 5

    def test_byte_identical_reruns(self, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        args = ["tradeoff", "--gate", "NOT", "--grid", "2,5", "--tau", "1e6"]
        main(args + ["--out", a])
        main(args + ["--out", b])
        assert open(a, "rb").read() == open(b, "rb").read()


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


def row_loop_verify_stdout(machine, table, enc, width):
    """`verify`'s stdout as its own per-row loop wrote it: encode each row's
    bits, then decode the output and take its Gaussian band probabilities."""
    finals = ch.machine_response(
        machine, [[tn.encode(b, enc) for b in bits] for bits, _ in table.rows()])
    lines, failures = [], []
    for (bits, expected), final in zip(table.rows(), finals.tolist()):
        got = tn.decode(final, enc)
        p0, p1, _ = ch.gaussian_band_probs(final, width, enc)
        status = "ok" if got == expected else "FAIL"
        shown = got if got is not None else "invalid"
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
    enc = tn.Encoding(0.0, 1.0, delta=delta, band=band)
    truth = tn.TruthTable.from_text(XOR_TT) if table == "T" else tn.gate_table(table)
    assert got == row_loop_verify_stdout(load_machine(out)[0], truth, enc, width)
    assert ("decoded = invalid" in got) == invalid


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
        doc = json.load(open(out))
        doc["spec"]["bogus"] = 1
        with pytest.raises(ConfigError, match="unknown"):
            machine_from_document(doc)

    def test_design_deterministic_bytes(self, tmp_path, capsys):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        main(["design", "--gate", "NOR", "--alpha", "20", "--seed", "5",
              "--out", a])
        main(["design", "--gate", "NOR", "--alpha", "20", "--seed", "5",
              "--out", b])
        assert open(a, "rb").read() == open(b, "rb").read()


PROVENANCE = {"weights": [], "alpha": 20.0, "eps_z": 0.1, "seed": 0,
              "tool_version": tn.TOOL_VERSION}


def nor_doc():
    return machine_to_document(tn.preset("NOR"), PROVENANCE)


def network_doc(*drop):
    """A one-neuron NOR network document with the field at path ``drop`` removed."""
    net = tn.NetworkSpec(n_inputs=2, layers=((tn.preset("NOR"),),),
                         wiring=(((0, 1),),))
    doc = machine_to_document(net, PROVENANCE)
    node = doc["spec"]
    for key in drop[:-1]:
        node = node[key]
    del node[drop[-1]]
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
    net = tn.NetworkSpec(n_inputs=1, layers=((tn.build_neuron((2.0, 1.0), (0, 1), 1.0, 1.0),),),
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
    "tradeoff-negative-inset-points": (nor_doc, ["tradeoff", "--gate", "NOT",
                                                 "--grid", "2", "--inset",
                                                 "--inset-points", "-3",
                                                 "--tau", "10"]),
    "design-negative-seed": (nor_doc, ["design", "--table", "T", "--layers", "2,1",
                                       "--seed", "-1"]),
    "verify-without-table-or-gate": (nor_doc, ["verify", "M"]),
    "grid-count-too-large": (nor_doc, ["sweep", "M", "--grid", "0:1:10000000000000000"]),
    "grid-list-product-too-large": (nor_doc, ["sweep", "M", "--grid", "0:1:1001;0:1:1000"]),
    "grid-for-every-input-too-large": (nor_doc, ["sweep", "M", "--grid", "0:1:1001"]),
    "tradeoff-grid-too-large": (nor_doc, ["tradeoff", "--gate", "NOT",
                                          "--grid", "1:2:1000001"]),
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
    "tradeoff-inset-points-too-large": (nor_doc, ["tradeoff", "--gate", "NOT", "--grid", "2",
                                                  "--inset", "--inset-points",
                                                  "1000000000000000"]),
    "tradeoff-seed-removed": (nor_doc, ["tradeoff", "--gate", "NOT", "--grid", "2",
                                        "--seed", "3", "--tau", "10"]),
    "provenance-not-an-object": (lambda: nor_doc() | {"provenance": 5}, STEADY),
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
    argv = [{"M": str(path), "T": xor_table}.get(a, a) for a in argv]
    out = tmp_path / "out.csv"
    # `steady` and `verify` have no --out.
    if argv[0] not in ("steady", "verify"):
        argv += ["--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
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
                 "--inset-points", "1001", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: argument --inset-points: the inset (grid x inset points) "
                   "has 1001000 points, more than 1000000"]
    assert not out.exists()


def test_machine_file_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "machine.json"
    path.write_bytes(b"\xff\xfe{}")
    assert main(["steady", str(path), "--inputs", "0"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot read machine file")


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
