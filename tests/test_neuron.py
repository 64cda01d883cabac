"""Neuron steady state: modulator calibration, exact transfer characteristic,
sigmoid limit, and the threshold/slope analytics."""

import dataclasses
import math

import numpy as np
import pytest

import thermoneuron as tn
from thermoneuron.errors import CalibrationError, StructuralError
from thermoneuron.neuron import (inflection_virtual_offset, steady_from_virtual,
                                 transfer_slope)

# Frozen 50-digit oracle values for rails (0, 1), eps_z = 0.1.
DELTA_01 = 0.024979187478939986099
BETA_R_01 = 0.51249479513625585413
MU_RATIO_01 = 39.033327779100198496
BETAZ_AT_BV0 = 0.49968769522299189732
# Rails (0, 1), eps_z = 0.5, input gap 20, beta0 = 0.5.
XSTAR_EZ05 = 0.030929803620161371456
THRESHOLD_EZ05 = 0.51095350981899193143
SLOPE_EZ05 = -4.9741200708638483222


class TestCalibrateModulator:
    def test_reference_values(self):
        cal = tn.calibrate_modulator(0.0, 1.0, 0.1, 1e-4)
        assert abs(cal.delta - DELTA_01) < 1e-14
        assert abs(cal.beta_r - BETA_R_01) < 1e-13
        assert abs(cal.mu_prime - 1e-4 * MU_RATIO_01) < 1e-15

    def test_defining_identity(self):
        # g_z(beta_r) (1 - delta) = g_z(beta_cold), to 1e-12.
        for eps_z in (0.05, 0.1, 0.5, 2.0):
            cal = tn.calibrate_modulator(0.0, 1.0, eps_z, 1e-4)
            lhs = tn.fermi_population(cal.beta_r * eps_z) * (1.0 - cal.delta)
            assert abs(lhs - tn.fermi_population(eps_z)) < 1e-12

    def test_small_gap_linear_delta(self):
        # delta -> eps_z (beta_cold - beta_hot) / 4 as eps_z -> 0.
        for eps_z in (1e-3, 1e-4):
            cal = tn.calibrate_modulator(0.0, 1.0, eps_z, 1e-4)
            assert abs(cal.delta / (eps_z / 4.0) - 1.0) < 1e-2

    def test_vanishing_coupling_warns(self):
        with pytest.warns(UserWarning, match="nearly vanishes"):
            tn.calibrate_modulator(0.0, 1.0, 1e-6, 1e-4)

    def test_infeasible_rails(self):
        with pytest.raises(CalibrationError):
            tn.calibrate_modulator(1.0, 0.0, 0.1, 1e-4)
        with pytest.raises(CalibrationError):
            tn.calibrate_modulator(0.5, 0.5, 0.1, 1e-4)

    def test_bad_rates(self):
        with pytest.raises(CalibrationError):
            tn.calibrate_modulator(0.0, 1.0, 0.1, 0.0)


class TestNeuronSpec:
    def test_delta_invariant_after_build(self, fig2_inverter):
        spec = fig2_inverter
        target = spec.g_z(spec.beta_hot) - spec.g_z(spec.beta_cold)
        assert abs(spec.delta - target) < 1e-10
        assert spec.is_calibrated()

    def test_off_resonance_rejected(self):
        with pytest.raises(StructuralError, match="resonan"):
            tn.build_neuron((2.0, 1.0), (0, 1), 0.5, 0.7)

    def test_weak_separation_warns(self):
        with pytest.warns(UserWarning, match="separation"):
            tn.build_neuron((2.0, 1.0), (0, 1), 0.5, 1.0, mu=0.5)

    def test_weak_separation_warning_names_the_builder(self):
        # Not the dataclass's generated __init__ ("<string>").
        with pytest.warns(UserWarning, match="separation") as record:
            tn.NeuronSpec(eps=(2.0, 1.0), h=(0, 1), beta0=0.5, eps_z=1.0,
                          beta_r=0.3, mu_prime=0.5)
        assert [w.filename for w in record] == [__file__]

    def test_non_finite_gap_rejected(self):
        # abs(nan - eps_z) > 1e-9 is False, so the resonance check alone
        # would let a NaN gap through.
        with pytest.raises(StructuralError, match="finite"):
            tn.NeuronSpec(eps=(math.nan, 1.0), h=(0, 1), beta0=0.5, eps_z=1.0,
                          beta_r=0.3, mu_prime=7e-4)

    @pytest.mark.parametrize("gap", [0.0, -0.05, -5.0, math.nan])
    def test_inverter_refuses_a_gap_that_is_not_positive(self, gap):
        # At -5 the machine it used to build no longer inverted (average error 0.38).
        with pytest.raises(tn.ConfigError) as err:
            tn.inverter(gap)
        assert str(err.value) == f"input gap eps_input must be positive, got {gap!r}"

    @pytest.mark.parametrize("change, match", [
        ({"h": (0, 1, 1)}, "equal lengths"),
        ({"eps": (2.0,), "h": (0,)}, "reference qubit"),
        ({"h": (0, 2)}, "bits"),
        *[({name: value}, f"{name} must be finite")
          for name in ("beta0", "eps_z", "beta_r", "mu_prime", "chi", "gamma", "mu",
                       "beta_hot", "beta_cold", "capacity")
          for value in (math.nan, math.inf, -math.inf)],
        *[({name: -1.0}, f"{name} must be non-negative")
          for name in ("chi", "gamma", "mu", "mu_prime")],
        ({"eps_z": 0.0}, "eps_z must be positive"),
        ({"capacity": 0.0}, "capacity must be positive"),
        ({"capacity": -1.0}, "capacity must be positive"),
        ({"beta_hot": -0.5}, "rails"),
        ({"beta_cold": 0.0}, "rails"),
        # A machine with no coupling to its baths has no closed form.
        *[({name: 0.0}, f"{name} must be positive") for name in ("chi", "gamma")],
    ])
    def test_value_rules(self, change, match):
        spec = tn.build_neuron((2.0, 1.0), (0, 1), 0.5, 1.0)
        with pytest.raises(StructuralError, match=match):
            dataclasses.replace(spec, **change)

    @pytest.mark.parametrize("rate", ["mu", "mu_prime"])
    def test_zero_reservoir_rate_is_not_calibrated(self, fig2_inverter, rate):
        assert not dataclasses.replace(fig2_inverter, **{rate: 0.0}).is_calibrated()

    def test_build_flips_labels_to_the_resonant_orientation(self):
        # h = (1, 0) gives sum_i (-1)^h_i eps_i = -1 on gaps (2, 1); flipped, +1.
        spec = tn.build_neuron((2.0, 1.0), (1, 0), 0.5, 1.0)
        assert spec.h == (0, 1)
        assert spec == tn.build_neuron((2.0, 1.0), (0, 1), 0.5, 1.0)

    def test_uncalibrated_spec_refused_by_steady_output(self):
        spec = tn.NeuronSpec(eps=(2.0, 1.0), h=(0, 1), beta0=0.5, eps_z=1.0,
                             beta_r=0.3, mu_prime=7e-4)
        with pytest.raises(CalibrationError):
            tn.steady_output(spec, (0.5,))


class TestSteadyOutput:
    def test_rail_limits(self, fig2_inverter):
        # beta_v -> +-inf drives the output to the rails.
        assert abs(steady_from_virtual(fig2_inverter, 1e6) - 1.0) < 1e-12
        assert abs(steady_from_virtual(fig2_inverter, -1e6) - 0.0) < 1e-12

    def test_midpoint_value(self, fig2_inverter):
        assert abs(steady_from_virtual(fig2_inverter, 0.0) - BETAZ_AT_BV0) < 1e-14

    def test_transfer_point_fields(self, fig2_inverter):
        point = tn.steady_output(fig2_inverter, (0.25,))
        assert point.inputs == (0.25,)
        expected_bv = (0.5 * 20.1 - 0.25 * 20.0) / 0.1
        assert abs(point.beta_v - expected_bv) < 1e-9

    def test_fixed_point_identity_on_grid(self, fig2_inverter):
        # g_z(beta_z_inf) = delta g_z(beta_v) + (1 - delta) g_z(beta_r).
        spec = fig2_inverter
        worst = 0.0
        for beta_v in np.linspace(-30.0, 30.0, 1000):
            bz = steady_from_virtual(spec, beta_v)
            rhs = (spec.delta * spec.g_z(beta_v)
                   + (1.0 - spec.delta) * spec.g_z(spec.beta_r))
            worst = max(worst, abs(spec.g_z(bz) - rhs))
        assert worst <= 1e-12

    def test_range_confinement_random_specs(self):
        from conftest import random_inputs, random_neuron
        rng = np.random.default_rng(3)
        for _ in range(50):
            spec = random_neuron(rng)
            point = tn.steady_output(spec, random_inputs(rng, spec))
            assert spec.beta_hot - 1e-9 <= point.beta_z_inf <= spec.beta_cold + 1e-9

    def test_monotone_in_each_input(self):
        # Sign of the response slope in input i is (-1)^(h_i).
        nor = tn.preset("NOR", tn.DesignConfig(alpha=2.0, eps_z=0.1))
        maj = tn.preset("MAJ3", tn.DesignConfig(alpha=2.0, eps_z=0.1))
        step = 1e-6
        for spec in (nor, maj):
            base = tuple(0.4 + 0.05 * i for i in range(spec.n))
            f0 = tn.steady_output(spec, base).beta_z_inf
            for i in range(spec.n):
                bumped = tuple(b + (step if j == i else 0.0)
                               for j, b in enumerate(base))
                df = tn.steady_output(spec, bumped).beta_z_inf - f0
                expected_sign = 1.0 if spec.h[1 + i] == 0 else -1.0
                assert df * expected_sign > 0

    def test_arity_checked(self, fig2_inverter):
        with pytest.raises(StructuralError):
            tn.steady_output(fig2_inverter, (0.1, 0.2))
        with pytest.raises(StructuralError, match="expected 1 inputs, got 2"):
            tn.sigmoid_approx(fig2_inverter, (0, 0))


class TestSigmoidApprox:
    def test_midpoint(self, fig2_inverter):
        # beta_v = 0 at beta_1 = beta0 * eps0 / eps1.
        b1 = 0.5 * 20.1 / 20.0
        assert abs(tn.sigmoid_approx(fig2_inverter, (b1,)) - 0.5) < 1e-12

    def test_deviation_from_exact_at_unit_argument(self, fig2_inverter):
        # eps_z beta_v = 1: sigmoid 0.731059 vs exact 0.730775 (2.84e-4 apart).
        spec = fig2_inverter
        b1 = (0.5 * 20.1 - 1.0) / 20.0
        approx = tn.sigmoid_approx(spec, (b1,))
        exact = tn.steady_output(spec, (b1,)).beta_z_inf
        assert abs(approx - 1.0 / (1.0 + math.exp(-1.0))) < 1e-12
        assert abs(exact - 0.73077501260673874212) < 1e-12
        assert abs(approx - exact) < 3e-4

    def test_input_form_deviation_scales_linearly_in_eps_z(self):
        # The input-side sigmoid drifts from the exact curve at O(eps_z):
        # its max deviation halves when eps_z halves.
        def max_dev(eps_z):
            spec = tn.inverter(20.0, eps_z)
            return max(abs(tn.steady_output(spec, (b1,)).beta_z_inf
                           - tn.neuron.sigmoid_approx_input_form(spec, b1))
                       for b1 in np.linspace(0.0, 1.0, 801))

        ratio = max_dev(0.1) / max_dev(0.05)
        assert 1.8 <= ratio <= 2.2

    def test_virtual_form_deviation_scales_quadratically(self):
        # In the eps_z*beta_v argument the O(eps_z) term cancels exactly;
        # the residual is eps_z^2 * y(1-y^2)/12 on rails (0, 1).
        def max_dev(eps_z):
            spec = tn.inverter(20.0, eps_z)
            grid = np.linspace(-8.0 / eps_z, 8.0 / eps_z, 801)
            return max(abs(steady_from_virtual(spec, beta_v)
                           - tn.fermi_population(-eps_z * beta_v))
                       for beta_v in grid)

        dev = max_dev(0.1)
        ratio = dev / max_dev(0.05)
        assert 3.8 <= ratio <= 4.2
        # Analytic prefactor: max_y y(1-y^2)/12 = 1/(18 sqrt(3)).
        assert abs(dev - 0.01 / (18.0 * math.sqrt(3.0))) < 2e-6


class TestThresholdAndSlope:
    def _appendix_machine(self):
        return tn.inverter(20.0, 0.5)

    def test_threshold_closed_form(self):
        spec = self._appendix_machine()
        assert abs(inflection_virtual_offset(0.5, 0.0, 1.0) - XSTAR_EZ05) < 1e-14
        assert abs(tn.threshold_point(spec) - THRESHOLD_EZ05) < 1e-13

    def test_threshold_matches_numeric_inflection(self):
        # Root of the second derivative of the transfer curve, bisected.
        spec = self._appendix_machine()

        def second_derivative(b1, h=1e-5):
            f = lambda x: tn.steady_output(spec, (x,)).beta_z_inf
            return f(b1 + h) - 2.0 * f(b1) + f(b1 - h)

        lo, hi = 0.45, 0.58
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if second_derivative(lo) * second_derivative(mid) <= 0:
                hi = mid
            else:
                lo = mid
        assert abs(0.5 * (lo + hi) - tn.threshold_point(spec)) < 1e-6

    def test_small_gap_threshold_approaches_beta0(self):
        # mu = 1e-6 keeps the time scales separated at this tiny gap.
        spec = tn.inverter(20.0, 1e-3, mu=1e-6)
        assert abs(tn.threshold_point(spec) - 0.5) < 1e-3

    def test_symmetric_rails_drop_the_offset(self):
        assert abs(inflection_virtual_offset(0.7, -1.3, 1.3)) < 1e-15

    def test_slope_closed_form(self):
        spec = self._appendix_machine()
        val = tn.slope_at_threshold(spec)
        assert abs(val - (-40.0 * math.tanh(0.125))) < 1e-12
        assert abs(val - SLOPE_EZ05) < 1e-12

    def test_slope_matches_finite_difference(self):
        spec = self._appendix_machine()
        fd = transfer_slope(spec, tn.threshold_point(spec))
        closed = tn.slope_at_threshold(spec)
        assert abs(fd - closed) <= 1e-6 * abs(closed)

    def test_small_gap_limit_is_quarter_input_gap(self):
        spec = tn.inverter(20.0, 1e-3, mu=1e-6)
        assert abs(tn.slope_at_threshold(spec) - (-5.0)) <= 0.001 * 5.0

    def test_magnitude_grows_with_input_gap(self):
        slopes = [abs(tn.slope_at_threshold(tn.inverter(e, 0.5)))
                  for e in (5.0, 10.0, 20.0, 40.0)]
        assert all(b > a for a, b in zip(slopes, slopes[1:]))

    def test_requires_single_input(self):
        nor = tn.preset("NOR")
        with pytest.raises(StructuralError):
            tn.threshold_point(nor)
        for single_input_only in (lambda: tn.neuron.sigmoid_approx_input_form(nor, 0.5),
                                  lambda: tn.slope_at_threshold(nor),
                                  lambda: transfer_slope(nor, 0.5)):
            with pytest.raises(StructuralError, match="single-input"):
                single_input_only()
