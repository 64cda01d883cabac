"""Encoding/decoding, the Gaussian response channel, and averaged error/dissipation."""

import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

import thermoneuron as tn
from conftest import on_rails
from thermoneuron import channel, designer
from thermoneuron.channel import gaussian_band_probs
from thermoneuron.designer import BANDS, decode_array, logic_rows
from thermoneuron.dynamics import accumulated_dissipation
from thermoneuron.errors import ConfigError

PHI_2 = 0.9772498680518207928  # standard normal CDF at 2, 50-digit oracle
UNIT = tn.preset("NOT")   # a machine on the default rails (0, 1)


class TestEncoding:
    def test_encode_rails(self):
        assert tn.encode(0, UNIT) == 0.0
        assert tn.encode(1, UNIT) == 1.0

    def test_round_trip_at_rails(self):
        enc = tn.Encoding()
        assert tn.decode(tn.encode(0, UNIT), enc, UNIT) == 0
        assert tn.decode(tn.encode(1, UNIT), enc, UNIT) == 1

    def test_multiplicative_band_literal(self):
        enc = tn.Encoding(delta=0.1)
        assert tn.decode(1.0, enc, UNIT) == 1
        assert tn.decode(0.5, enc, UNIT) is None   # inside (0, 0.9)
        assert tn.decode(-0.01, enc, UNIT) == 0    # at or below (1+delta)*0
        assert tn.decode(1e-6, enc, UNIT) is None  # the 0-band is a single point

    def test_additive_band(self):
        enc = tn.Encoding(delta=0.1, band="additive")
        assert enc.edges(UNIT) == (0.1, 0.9)
        assert tn.decode(0.05, enc, UNIT) == 0
        assert tn.decode(0.95, enc, UNIT) == 1
        assert tn.decode(0.5, enc, UNIT) is None

    def test_holds_only_the_decoding_rule(self):
        # The rails are the machine's; an encoding cannot restate them.
        assert [f.name for f in dataclasses.fields(tn.Encoding)] == ["delta", "band"]

    @pytest.mark.parametrize("band", BANDS)
    @pytest.mark.parametrize("rails", [(0.0, 1.0), (0.2, 1.5)])
    def test_array_decode_equals_scalar_decode(self, band, rails):
        machine, enc = on_rails(UNIT, rails), tn.Encoding(delta=0.1, band=band)
        low, high = enc.edges(machine)
        edges = np.array([low, high])
        values = np.concatenate([
            edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
            [np.nan, np.inf, -np.inf, rails[0], rails[1]],
            np.random.default_rng(11).uniform(-0.5, 2.0, 1000)])
        codes = decode_array(values, enc, machine)
        assert codes.shape == values.shape
        for v, code in zip(values.tolist(), codes.tolist()):
            # The band rule written out, scalar by scalar.
            want = 0 if v <= low else 1 if v >= high else None
            assert tn.decode(v, enc, machine) == want
            assert code == (-1 if want is None else want)
        assert set(codes[:2].tolist()) == {0, 1}
        assert codes[6] == -1  # NaN

    def test_rows_on_the_rails_in_table_order(self):
        machine = on_rails(tn.preset("MAJ3"), (0.2, 0.7))
        rows = logic_rows(machine)
        assert rows.shape == (8, 3) and rows.dtype == float
        want = [[tn.encode(b, machine) for b in bits]
                for bits, _ in tn.gate_table("MAJ3").rows()]
        assert rows.tolist() == want

    def test_encoding_has_one_home(self):
        # The encoding lives in designer; the package re-exports it.
        for name in ("Encoding", "encode", "decode"):
            assert getattr(tn, name) is getattr(designer, name)

    def test_overlapping_bands_rejected(self):
        with pytest.raises(ConfigError, match="overlap"):
            tn.Encoding(delta=0.6, band="additive").edges(UNIT)

    def test_bad_inputs(self):
        with pytest.raises(ConfigError):
            tn.encode(2, UNIT)


class TestGaussianChannel:
    def test_cdf_reference_point(self):
        # mean 1.0, spread 0.05, high edge 0.9: p(y=1) = Phi(2).
        enc = tn.Encoding(delta=0.1)
        _, p1, _ = gaussian_band_probs(1.0, 0.05, enc, UNIT)
        assert abs(p1 - PHI_2) < 1e-14

    def test_rows_sum_to_one(self):
        enc = tn.Encoding(delta=0.1, band="additive")
        spec = tn.preset("NOR", tn.DesignConfig(alpha=5.0))
        stats = tn.conditional_outputs(spec, enc, 0.2)
        sums = stats.p_y_given_x.sum(axis=1)
        assert np.abs(sums - 1.0).max() < 1e-9

    def test_sharp_channel_decodes_perfectly(self):
        # spread -> 0 with means inside the bands: p(correct) -> 1.
        enc = tn.Encoding(delta=0.1, band="additive")
        spec = tn.preset("NOR", tn.DesignConfig(alpha=20.0))
        stats = tn.conditional_outputs(spec, enc, 1e-6)
        for (bits, out) in tn.gate_table("NOR").rows():
            idx = int("".join(map(str, bits)), 2)
            assert stats.p_y_given_x[idx, out] > 1.0 - 1e-12

    def test_monte_carlo_matches_closed_form(self):
        enc = tn.Encoding(delta=0.1)
        n_samples = 1_000_000
        for gate, alpha in (("NOT", 5.0), ("NOR", 5.0)):
            spec = tn.preset(gate, tn.DesignConfig(alpha=alpha))
            exact = tn.conditional_outputs(spec, enc, 0.05)
            mc = tn.mc_conditional_outputs(spec, enc, 0.05, n_samples, seed=99)
            for i in range(exact.p_y_given_x.shape[0]):
                for j in range(3):
                    p = exact.p_y_given_x[i, j]
                    se = np.sqrt(max(p * (1 - p), 1e-12) / n_samples)
                    assert abs(mc.p_y_given_x[i, j] - p) <= 3.0 * se

    def test_monte_carlo_rows_are_probabilities(self):
        # Seed 10 once gave row (1) a p_invalid of 1 - 0.8 - 0.2 = -5.55e-17.
        enc = tn.Encoding(delta=0.1, band="additive")
        p = tn.mc_conditional_outputs(tn.preset("NOT"), enc, 5.0, 10, seed=10).p_y_given_x
        assert p.min() >= 0.0
        assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-15

    @pytest.mark.parametrize("n_samples", [0, -1])
    def test_monte_carlo_needs_a_sample(self, n_samples):
        spec = tn.preset("NOT", tn.DesignConfig(alpha=5.0))
        with pytest.raises(ConfigError, match="n_samples must be at least 1"):
            tn.mc_conditional_outputs(spec, tn.Encoding(), 0.05, n_samples, seed=1)

    @pytest.mark.parametrize("n_samples, seed, message", [
        (2.5, 1, "n_samples must be an integer, got 2.5"),
        (True, 1, "n_samples must be an integer, got True"),
        (10, -1, "seed must be at least 0, got -1"),
        (10, 1.0, "seed must be an integer, got 1.0"),
    ])
    def test_monte_carlo_needs_integer_counts(self, n_samples, seed, message):
        spec = tn.preset("NOT")
        with pytest.raises(ConfigError, match=message):
            tn.mc_conditional_outputs(spec, tn.Encoding(), 0.05, n_samples, seed)


def inline_band_table(machine, enc, spread, n_samples, seed):
    """The Monte Carlo table with the band rule written out against the edges
    (the oracle for `mc_conditional_outputs`, which decodes through `decode_array`)."""
    low, high = enc.edges(machine)
    rng = np.random.default_rng(seed)
    means = channel.machine_response(machine, logic_rows(machine))
    table = np.empty((len(means), 3))
    for i, m in enumerate(means):
        samples = rng.normal(m, spread, n_samples)
        table[i] = (np.mean(samples <= low), np.mean(samples >= high),
                    np.mean((low < samples) & (samples < high)))
    return table


@pytest.fixture(scope="module")
def oracle_machines():
    """Criterion 10's presets and the seed-7 XOR network."""
    machines = {gate: tn.preset(gate, tn.DesignConfig(alpha=alpha, eps_z=0.1))
                for gate, alpha in (("NOT", 5.0), ("NOR", 5.0), ("MAJ3", 3.0))}
    machines["XOR"] = tn.train_network(tn.gate_table("XOR"), (2, 1),
                                       tn.DesignConfig(alpha=20.0, eps_z=0.1, seed=7))
    return machines


@pytest.mark.parametrize("band", BANDS)
@pytest.mark.parametrize("delta", [0.1, 0.4])
@pytest.mark.parametrize("name", ["NOT", "NOR", "MAJ3", "XOR"])
def test_monte_carlo_table_equals_the_inline_band_rule(name, delta, band, oracle_machines):
    machine, enc = oracle_machines[name], tn.Encoding(delta=delta, band=band)
    want = inline_band_table(machine, enc, 0.05, 20_000, seed=31)
    got = tn.mc_conditional_outputs(machine, enc, 0.05, 20_000, seed=31).p_y_given_x
    assert np.array_equal(got, want)


class TestAverageError:
    def test_perfect_machine_has_zero_error(self):
        enc = tn.Encoding(delta=0.1, band="additive")
        spec = tn.preset("NOR", tn.DesignConfig(alpha=20.0))
        stats = tn.conditional_outputs(spec, enc, 1e-6)
        xi, invalid = tn.average_error(stats, tn.gate_table("NOR"))
        assert xi < 1e-12 and invalid < 1e-12

    def test_inverting_kernel_equivalence(self):
        # For the NOT table, "wrong bit" is exactly y = x.
        enc = tn.Encoding(delta=0.1)
        spec = tn.preset("NOT", tn.DesignConfig(alpha=3.0))
        stats = tn.conditional_outputs(spec, enc, 0.1)
        xi, _ = tn.average_error(stats, tn.gate_table("NOT"))
        kernel = 0.5 * (stats.p_y_given_x[0, 0] + stats.p_y_given_x[1, 1])
        assert abs(xi - kernel) < 1e-15

    def test_probability_budget(self):
        enc = tn.Encoding(delta=0.1)
        spec = tn.preset("NOT", tn.DesignConfig(alpha=2.0))
        stats = tn.conditional_outputs(spec, enc, 0.2)
        table = tn.gate_table("NOT")
        xi, invalid = tn.average_error(stats, table)
        correct = sum(0.5 * stats.p_y_given_x[idx, out]
                      for idx, out in enumerate(table.outputs))
        assert abs(xi + invalid + correct - 1.0) < 1e-9


class TestOffTheDefaultRails:
    """NOR on rails (0.2, 1.5): its rows, edges and bits all come from the machine."""

    MACHINE = on_rails(tn.preset("NOR"), (0.2, 1.5))
    ENC = tn.Encoding(delta=0.1, band="additive")

    def test_closed_form_channel_computes_nor(self):
        stats = tn.conditional_outputs(self.MACHINE, self.ENC, 0.05)
        assert decode_array(stats.means, self.ENC, self.MACHINE).tolist() == [1, 0, 0, 0]
        _, invalid = tn.average_error(stats, tn.gate_table("NOR"))
        assert invalid < 0.05

    def test_monte_carlo_agrees(self):
        n_samples = 100_000
        exact = tn.conditional_outputs(self.MACHINE, self.ENC, 0.05)
        mc = tn.mc_conditional_outputs(self.MACHINE, self.ENC, 0.05, n_samples, seed=5)
        assert mc.means.tolist() == exact.means.tolist()
        p = exact.p_y_given_x
        se = np.sqrt(np.maximum(p * (1 - p), 1e-12) / n_samples)
        assert np.all(np.abs(mc.p_y_given_x - p) <= 3.0 * se)

    def test_average_dissipation_is_the_uniform_mean_over_the_rows(self):
        tau, total = 1e4, 0.0
        for sigma in tn.dissipation(self.MACHINE, logic_rows(self.MACHINE), tau).tolist():
            total += 0.25 * sigma
        assert tn.average_dissipation(self.MACHINE, tau) == total


class TestAverageDissipation:
    def test_zero_horizon(self):
        spec = tn.inverter(20.0, 0.1)
        assert tn.average_dissipation(spec, 0.0) == 0.0

    def test_late_time_linearity(self):
        # Past the relaxation, dissipation accrues at the constant
        # steady-state rate.
        spec = tn.inverter(20.0, 0.1)
        tau = 1e7
        traj = tn.evolve_quasi_static(spec, (1.0,), 0.5, 2 * tau)
        rate_ss = traj.sigma_dot[-1]
        s1 = accumulated_dissipation(
            tn.evolve_quasi_static(spec, (1.0,), 0.5, tau))
        s2 = accumulated_dissipation(traj)
        assert abs((s2 - s1) - tau * rate_ss) <= 0.02 * (s2 - s1)

    def test_averages_over_inputs(self):
        spec = tn.inverter(5.0, 0.1)
        tau = 1e6
        per_input = []
        for bit in (0, 1):
            traj = tn.evolve_quasi_static(spec, (tn.encode(bit, spec),), 0.5, tau)
            per_input.append(accumulated_dissipation(traj))
        avg = tn.average_dissipation(spec, tau)
        assert abs(avg - 0.5 * sum(per_input)) < 1e-9 * max(per_input)


    @pytest.mark.parametrize("rails", [(0.0, 1.0), (0.2, 1.5)])
    def test_dissipation_keeps_the_bits_of_the_row_loop(self, rails):
        # The loop average_dissipation ran before it shared `dissipation`,
        # each run started at the midpoint of the machine's rails.
        spec, tau = on_rails(tn.preset("NOR"), rails), 1e4
        start = 0.5 * (rails[0] + rails[1])
        total, per_row = 0.0, []
        for bits in itertools.product((0, 1), repeat=spec.n):
            traj = tn.evolve_quasi_static(spec, [tn.encode(b, spec) for b in bits], start, tau)
            per_row.append(accumulated_dissipation(traj))
            total += (1.0 / 4) * per_row[-1]
        assert tn.dissipation(spec, logic_rows(spec), tau).tolist() == per_row
        assert tn.average_dissipation(spec, tau) == total


    @pytest.mark.parametrize("tau", [-1.0, math.nan, math.inf, -math.inf])
    def test_dissipation_refuses_a_bad_horizon_by_the_run_rule(self, tau):
        spec = tn.preset("NOT")
        message = f"tau must be non-negative and finite, got {tau!r}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            tn.dissipation(spec, logic_rows(spec), tau)
        # With no rows nothing runs.
        assert tn.dissipation(spec, np.empty((0, 1)), tau).shape == (0,)


class TestTradeoffSweep:
    def test_single_point(self):
        enc = tn.Encoding(delta=0.1)
        points = tn.tradeoff_sweep("NOT", "eps1", [5.0], enc, 0.05, 1e6)
        assert len(points) == 1 and points[0].knob == 5.0

    def test_monotone_error_dissipation_tradeoff(self):
        enc = tn.Encoding(delta=0.1)
        points = tn.tradeoff_sweep("NOT", "eps1", [2.0, 5.0, 10.0, 20.0],
                                   enc, 0.05, 1e7)
        xis = [p.avg_xi for p in points]
        sigmas = [p.avg_sigma for p in points]
        assert all(b < a for a, b in zip(xis, xis[1:]))
        assert all(b > a for a, b in zip(sigmas, sigmas[1:]))

    def test_reproducible(self):
        enc = tn.Encoding(delta=0.1)
        a = tn.tradeoff_sweep("NOT", "eps1", [2.0, 5.0], enc, 0.05, 1e6)
        b = tn.tradeoff_sweep("NOT", "eps1", [2.0, 5.0], enc, 0.05, 1e6)
        assert a == b

    def test_alpha_knob_monotone_for_presets(self):
        # Steeper machines err less and dissipate more, gate by gate.
        enc = tn.Encoding(delta=0.1)
        for gate in ("NOR", "MAJ3"):
            points = tn.tradeoff_sweep(gate, "alpha", [2.0, 4.0, 8.0],
                                       enc, 0.05, 1e6)
            xis = [p.avg_xi for p in points]
            sigmas = [p.avg_sigma for p in points]
            assert all(b < a for a, b in zip(xis, xis[1:]))
            assert all(b > a for a, b in zip(sigmas, sigmas[1:]))

    def test_eps1_knob_not_only(self):
        with pytest.raises(ConfigError):
            tn.tradeoff_sweep("NOR", "eps1", [2.0], tn.Encoding(), 0.05, 1e6)

    @pytest.mark.parametrize("gate, knob", [("NOT", "eps1"), ("NOR", "alpha")])
    def test_machine_takes_mu_from_the_config_and_rails_from_neuron_spec(self, gate, knob):
        machine = channel.tradeoff_machine(gate, knob, 4.0, tn.DesignConfig(mu=2e-4))
        assert machine.mu == 2e-4 and machine.is_calibrated()
        assert (machine.beta_hot, machine.beta_cold) == (
            tn.NeuronSpec.beta_hot, tn.NeuronSpec.beta_cold)

    @pytest.mark.parametrize("gate, knob, message", [
        ("MAJ3", "eps1", "the eps1 knob applies to the NOT gate only"),
        ("NOT", "foo", "knob must be 'eps1' or 'alpha'"),
    ])
    def test_machine_refuses_an_unsupported_knob(self, gate, knob, message):
        with pytest.raises(ConfigError, match=message):
            channel.tradeoff_machine(gate, knob, 2.0, tn.DesignConfig())
        with pytest.raises(ConfigError, match=message):
            tn.tradeoff_sweep(gate, knob, [], tn.Encoding(), 0.05, 1e6)
