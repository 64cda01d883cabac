"""Truth tables, perceptron training, and weight-to-machine compilation."""

import time

import numpy as np
import pytest

import thermoneuron as tn
from thermoneuron.designer import (DESIGN_ENCODING, PRESET_WEIGHTS,
                                   perceptron_identity_residual, search_alpha)
from thermoneuron.errors import ConfigError, DesignError, NotSeparableError

# Frozen 50-digit oracle values for the NOR preset at alpha = 1, eps_z = 0.1.
NOR_A1_00 = 0.73077501260673874212
NOR_A1_11 = 0.047386479769095640382


def additive_decode(beta_z, lo=0.1, hi=0.9):
    return 0 if beta_z <= lo else (1 if beta_z >= hi else None)


class TestTruthTable:
    def test_from_text_with_colons(self):
        table = tn.TruthTable.from_text("0 0 : 1\n0 1 : 0\n1 0 : 0\n1 1 : 0\n")
        assert table.outputs == (1, 0, 0, 0)
        assert table.outputs[0] == 1

    def test_from_text_without_colons_any_order(self):
        table = tn.TruthTable.from_text("1 1\n0 0\n")
        assert table.n == 1 and table.outputs == (0, 1)

    @pytest.mark.parametrize("line", ["0 : 0 1", ": 0 0 1", "0 0 :", "0 : 1 : 0",
                                      "0 :: 1", "0 : 1:"])
    def test_misplaced_colon_rejected(self, line):
        text = f"0 0 : 1\n{line}\n"
        with pytest.raises(ConfigError,
                           match=r"^truth table line 2: expected 'bits : output'$"):
            tn.TruthTable.from_text(text)

    def test_incomplete_rejected(self):
        with pytest.raises(ConfigError, match="incomplete"):
            tn.TruthTable.from_text("0 0 : 1\n0 1 : 0\n")

    @pytest.mark.parametrize("n", [12, 40])
    def test_incomplete_names_the_count_and_first_missing_rows(self, n):
        start = time.perf_counter()
        with pytest.raises(ConfigError) as exc:
            tn.TruthTable.from_text("0 " * (n - 1) + "1 : 1\n")
        assert time.perf_counter() - start < 1.0
        assert str(exc.value) == (
            f"truth table incomplete: 1/{1 << n} rows "
            f"({(1 << n) - 1} missing, first indices [0, 2, 3, 4, 5, 6, 7, 8])")

    def test_duplicate_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            tn.TruthTable.from_text("0 : 1\n0 : 1\n1 : 0\n")

    @pytest.mark.parametrize("n, message", [
        (1.5, "n must be an integer, got 1.5"),
        (True, "n must be an integer, got True"),
        (0, "n must be at least 1, got 0"),
    ])
    def test_arity_must_be_a_positive_integer(self, n, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            tn.TruthTable(n, (0, 1))

    def test_outputs_are_kept_as_a_tuple_of_ints(self):
        table = tn.TruthTable(1, [0, 1])
        assert table.outputs == (0, 1) and type(table.outputs) is tuple
        assert table == tn.TruthTable(1, (0, 1))
        assert hash(table) == hash(tn.TruthTable(1, (0, 1)))

    def test_gate_fixtures(self):
        assert tn.gate_table("NOT").outputs == (1, 0)
        assert tn.gate_table("NOR").outputs == (1, 0, 0, 0)
        assert tn.gate_table("XOR").outputs == (0, 1, 1, 0)
        assert tn.gate_table("MAJ3").outputs == (0, 0, 0, 1, 0, 1, 1, 1)


class TestTrainPerceptron:
    def test_not_gate_sign_pattern(self):
        w = tn.train_perceptron(tn.gate_table("NOT"), tn.DesignConfig(seed=0))
        assert w[0] > 0 and w[1] < 0

    def test_all_rows_classified_with_unit_margin(self):
        for gate in ("NOT", "NOR", "OR", "AND", "NAND", "MAJ3"):
            table = tn.gate_table(gate)
            w = tn.train_perceptron(table, tn.DesignConfig(seed=1))
            margins = []
            for bits, out in table.rows():
                z = w[0] + float(np.dot(w[1:], bits))
                margins.append((1.0 if out else -1.0) * z)
            assert min(margins) >= 1.0 - 1e-12
            assert abs(min(margins) - 1.0) < 1e-9

    def test_xor_not_separable(self):
        with pytest.raises(NotSeparableError) as err:
            tn.train_perceptron(tn.gate_table("XOR"), tn.DesignConfig())
        assert err.value.rows  # names the violating rows

    def test_deterministic_given_seed(self):
        cfg = tn.DesignConfig(seed=11)
        w1 = tn.train_perceptron(tn.gate_table("NOR"), cfg)
        w2 = tn.train_perceptron(tn.gate_table("NOR"), cfg)
        assert np.array_equal(w1, w2)


class TestWeightsToNeuron:
    def test_nor_textbook_parameters(self):
        # w = (1, -2, -2): h = (0,1,1), eps = alpha (eps_z + 4, 2, 2),
        # beta0 = 1/(eps_z + 4).
        alpha, eps_z = 20.0, 0.1
        spec = tn.weights_to_neuron((1.0, -2.0, -2.0),
                                    tn.DesignConfig(alpha=alpha, eps_z=eps_z))
        assert spec.h == (0, 1, 1)
        assert np.allclose(spec.eps, (alpha * (eps_z + 4), alpha * 2, alpha * 2))
        assert abs(spec.beta0 - 1.0 / (eps_z + 4)) < 1e-15
        assert abs(spec.eps_z - alpha * eps_z) < 1e-12

    def test_maj3_literal_parameters(self):
        # w = (-4, 3, 3, 3): h = (1,0,0,0), eps_0 = alpha |eps_z - 9|,
        # beta0 = 4/|eps_z - 9|; decision boundary sum(beta) = 4/3.
        alpha, eps_z = 10.0, 0.1
        spec = tn.weights_to_neuron((-4.0, 3.0, 3.0, 3.0),
                                    tn.DesignConfig(alpha=alpha, eps_z=eps_z))
        assert spec.h == (1, 0, 0, 0)
        assert np.allclose(spec.eps, (alpha * (9 - eps_z), 30.0, 30.0, 30.0))
        assert abs(spec.beta0 - 4.0 / (9 - eps_z)) < 1e-15
        third = 4.0 / 9.0
        point = tn.steady_output(spec, (third, third, third))
        assert abs(point.beta_v) < 1e-10

    def test_perceptron_identity(self):
        for gate, alpha in (("NOT", 20.0), ("NOR", 20.0), ("MAJ3", 10.0)):
            cfg = tn.DesignConfig(alpha=alpha, eps_z=0.1)
            w = np.asarray(PRESET_WEIGHTS[gate], dtype=float)
            spec = tn.weights_to_neuron(w, cfg)
            assert perceptron_identity_residual(spec, w, alpha) <= 1e-10

    def test_zero_weight_decouples_its_qubit(self):
        spec = tn.weights_to_neuron((1.0, -2.0, 0.0), tn.DesignConfig(alpha=4.0))
        assert spec.h[2] == 0 and spec.eps[2] == 0.0
        # The decoupled input has no influence on the output.
        a = tn.steady_output(spec, (0.3, 0.0)).beta_z_inf
        b = tn.steady_output(spec, (0.3, 1.0)).beta_z_inf
        assert abs(a - b) < 1e-15

    def test_degenerate_bias_rejected(self):
        with pytest.raises(DesignError, match="degenerate"):
            tn.weights_to_neuron((1.0, 0.1), tn.DesignConfig(eps_z=0.1))

    @pytest.mark.parametrize("alpha, eps_z, cause", [
        (7100.0, 0.1, "calibration overflow"),
        (1e-150, 0.1, "calibration infeasible"),
        (20.0, 1e-200, "comes out -0.0 .target gap eps_z must be positive"),
    ])
    def test_gap_outside_calibration_names_alpha_and_eps_z(self, alpha, eps_z, cause):
        # The user sets alpha and eps_z; the machine's target gap alpha * eps_z
        # leaves calibration's range or rounds away against alpha * |w|.
        message = f"alpha = {alpha!r}, eps_z = {eps_z!r}: .*{cause}"
        with pytest.raises(DesignError, match=message):
            tn.weights_to_neuron(PRESET_WEIGHTS["NOR"],
                                 tn.DesignConfig(alpha=alpha, eps_z=eps_z))

    def test_mismatched_signs_use_inverted_reference_bath(self):
        # x1 AND (NOT x2): w_0 < 0 with sum(w_k) < eps_z forces beta0 < 0;
        # the compiled machine still computes the function.
        cfg = tn.DesignConfig(alpha=20.0, eps_z=0.1)
        spec = tn.weights_to_neuron((-1.0, 2.0, -2.0), cfg)
        assert spec.beta0 < 0
        assert abs(spec.eps_z - cfg.alpha * cfg.eps_z) < 1e-12
        table = tn.TruthTable(2, (0, 0, 1, 0))
        for bits, out in table.rows():
            r = tn.steady_output(spec, tuple(float(b) for b in bits)).beta_z_inf
            assert additive_decode(r) == out

    def test_weight_scaling_preserves_boundary_and_identity(self):
        # (c w, alpha/c) bundles to the same perceptron product and the same
        # decoded table.
        w = np.array([1.0, -2.0, -2.0])
        cfg_a = tn.DesignConfig(alpha=20.0, eps_z=0.1)
        cfg_b = tn.DesignConfig(alpha=10.0, eps_z=0.1)
        spec_a = tn.weights_to_neuron(w, cfg_a)
        spec_b = tn.weights_to_neuron(2.0 * w, cfg_b)
        rng = np.random.default_rng(4)
        for _ in range(10):
            betas = tuple(rng.uniform(0.0, 1.0, 2))
            pa = tn.steady_output(spec_a, betas)
            pb = tn.steady_output(spec_b, betas)
            assert abs(spec_a.eps_z * pa.beta_v - spec_b.eps_z * pb.beta_v) < 1e-10
        for bits, _ in tn.gate_table("NOR").rows():
            ra = tn.steady_output(spec_a, tuple(float(b) for b in bits)).beta_z_inf
            rb = tn.steady_output(spec_b, tuple(float(b) for b in bits)).beta_z_inf
            assert additive_decode(ra) == additive_decode(rb)


@pytest.mark.parametrize("field, value, message", [
    ("alpha", np.inf, "alpha must be positive and finite, got inf"),
    ("alpha", np.nan, "alpha must be positive and finite, got nan"),
    ("eps_z", np.inf, "eps_z must be positive and finite, got inf"),
    ("eps_z", 0.0, "eps_z must be positive and finite, got 0.0"),
    # Not a later error naming mu_prime.
    ("mu", np.inf, "mu must be positive and finite, got inf"),
    ("mu", np.nan, "mu must be positive and finite, got nan"),
    ("mu", 0.0, "mu must be positive and finite, got 0.0"),
    ("seed", -1, "seed must be at least 0, got -1"),
    ("seed", 1.5, "seed must be an integer, got 1.5"),
])
def test_design_config_refuses_what_would_fail_later(field, value, message):
    with pytest.raises(ConfigError, match=message):
        tn.DesignConfig(**{field: value})


def test_physical_defaults_are_the_neuron_spec_defaults():
    # NeuronSpec states the default reservoir rate mu; DesignConfig, build_neuron
    # and inverter read it from there.
    import dataclasses
    import inspect
    config = {f.name: f.default for f in dataclasses.fields(tn.DesignConfig)}
    assert set(config) == {"alpha", "eps_z", "seed", "mu"}
    for builder in (tn.build_neuron, tn.inverter):
        assert inspect.signature(builder).parameters["mu"].default == tn.NeuronSpec.mu
    assert config["mu"] == tn.NeuronSpec.mu


class TestPreset:
    def test_not_alpha_is_the_input_gap(self):
        spec = tn.preset("NOT", tn.DesignConfig(alpha=20.0, eps_z=0.1))
        assert abs(spec.eps[1] - 20.0) < 1e-12

    def test_nor_small_alpha_reference_values(self):
        spec = tn.preset("NOR", tn.DesignConfig(alpha=1.0, eps_z=0.1))
        out00 = tn.steady_output(spec, (0.0, 0.0)).beta_z_inf
        out11 = tn.steady_output(spec, (1.0, 1.0)).beta_z_inf
        assert abs(out00 - NOR_A1_00) < 1e-13
        assert abs(out11 - NOR_A1_11) < 1e-13

    def test_nor_steep_alpha_reaches_rails(self):
        spec = tn.preset("NOR", tn.DesignConfig(alpha=20.0, eps_z=0.1))
        assert abs(tn.steady_output(spec, (0.0, 0.0)).beta_z_inf - 1.0) < 1e-3
        assert abs(tn.steady_output(spec, (1.0, 1.0)).beta_z_inf - 0.0) < 1e-3

    def test_not_steep_alpha_reaches_rails(self):
        spec = tn.preset("NOT", tn.DesignConfig(alpha=20.0, eps_z=0.1))
        assert abs(tn.steady_output(spec, (0.0,)).beta_z_inf - 1.0) < 1e-3
        assert abs(tn.steady_output(spec, (1.0,)).beta_z_inf - 0.0) < 1e-3

    def test_maj3_decodes_every_row(self):
        spec = tn.preset("MAJ3", tn.DesignConfig(alpha=10.0, eps_z=0.1))
        for bits, out in tn.gate_table("MAJ3").rows():
            r = tn.steady_output(spec, tuple(float(b) for b in bits)).beta_z_inf
            assert additive_decode(r) == out

    def test_unknown_gate(self):
        with pytest.raises(ConfigError):
            tn.preset("XNOR")


class TestBehavioralCompilation:
    def test_trained_designs_decode_their_tables(self):
        # Doubling search on alpha finds a steepness at which every row of
        # every separable fixture decodes correctly.
        for gate in ("NOT", "NOR", "OR", "AND", "NAND", "MAJ3"):
            table = tn.gate_table(gate)
            cfg = tn.DesignConfig(alpha=1.0, eps_z=0.1, seed=3)
            alpha = search_alpha(table, cfg)
            assert alpha <= 4096.0

    @pytest.mark.parametrize("gate, alpha", [("NOT", 8.0), ("NOR", 4.0), ("MAJ3", 4.0)])
    def test_search_alpha_on_preset_weights(self, gate, alpha):
        found = search_alpha(tn.gate_table(gate), tn.DesignConfig(alpha=1.0),
                             weights=PRESET_WEIGHTS[gate])
        assert found == alpha

    def test_search_alpha_gives_up_at_alpha_max(self):
        # NOR's weights never compute XOR, however steep.
        with pytest.raises(DesignError, match="no steepness up to 4096"):
            search_alpha(tn.gate_table("XOR"), tn.DesignConfig(alpha=1.0),
                         weights=PRESET_WEIGHTS["NOR"])

    def test_design_encoding_is_additive_on_the_rails(self):
        assert DESIGN_ENCODING == tn.Encoding(delta=0.1, band="additive")
        assert DESIGN_ENCODING.edges(tn.preset("NOT")) == (0.1, 0.9)
