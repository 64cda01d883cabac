"""Slow calorimetric evolution, full co-integration, and dissipation accounting."""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

import thermoneuron as tn
from thermoneuron.dynamics import CSV_HEADER, accumulated_dissipation
from thermoneuron.errors import ConfigError, StructuralError
from thermoneuron.serialize import format_csv

PAPER_NOT_KW = dict(mu=1e-4, gamma=1.0, chi=1.0, capacity=1.0)


@pytest.fixture(scope="module")
def paper_not():
    return tn.inverter(20.0, 0.5, 0.1, **PAPER_NOT_KW)


class TestQuasiStatic:
    def test_fixed_point_is_constant(self, paper_not):
        target = tn.steady_output(paper_not, (0.3,)).beta_z_inf
        traj = tn.evolve_quasi_static(paper_not, (0.3,), target, 1e6)
        assert np.abs(traj.beta_z - target).max() < 1e-9

    def test_paper_parameters_reach_the_steady_output(self, paper_not):
        # tau = 1e8 with mu = 1e-4 is ~1e3 relaxation times.
        for b1 in (0.0, 1.0, 0.4):
            traj = tn.evolve_quasi_static(paper_not, (b1,), 0.5, 1e8)
            target = tn.steady_output(paper_not, (b1,)).beta_z_inf
            assert abs(traj.endpoint - target) <= 1e-6

    def test_monotone_approach(self, paper_not):
        # beta_z - beta_z_inf keeps its sign (up to solver round-off) and the
        # march toward the fixed point never reverses.
        target = tn.steady_output(paper_not, (0.0,)).beta_z_inf
        traj = tn.evolve_quasi_static(paper_not, (0.0,), 0.5, 1e8)
        gap = traj.beta_z - target
        assert np.all(gap * np.sign(gap[0]) >= -1e-9)
        diffs = np.diff(traj.beta_z)
        assert np.all(diffs * np.sign(diffs[0]) >= -1e-9)

    def test_range_confinement_along_trajectory(self, paper_not):
        for b1 in (0.0, 1.0):
            traj = tn.evolve_quasi_static(paper_not, (b1,), 0.5, 1e8)
            assert traj.beta_z.min() >= min(0.5, paper_not.beta_hot) - 1e-9
            assert traj.beta_z.max() <= max(0.5, paper_not.beta_cold) + 1e-9

    def test_initial_rate_scales_linearly_with_couplings(self, paper_not):
        # Halving mu and mu' together halves d(beta_z)/dt at t = 0 within 1%.
        halved = tn.NeuronSpec(
            eps=paper_not.eps, h=paper_not.h, beta0=paper_not.beta0,
            eps_z=paper_not.eps_z, beta_r=paper_not.beta_r,
            mu_prime=paper_not.mu_prime / 2, chi=paper_not.chi,
            gamma=paper_not.gamma, mu=paper_not.mu / 2,
            beta_hot=paper_not.beta_hot, beta_cold=paper_not.beta_cold,
            capacity=paper_not.capacity)
        assert halved.is_calibrated()
        rate_full = (tn.evolve_quasi_static(paper_not, (0.0,), 0.5, 0.0)
                     .j_collector[0]
                     + tn.evolve_quasi_static(paper_not, (0.0,), 0.5, 0.0)
                     .j_modulator[0])
        rate_half = (tn.evolve_quasi_static(halved, (0.0,), 0.5, 0.0)
                     .j_collector[0]
                     + tn.evolve_quasi_static(halved, (0.0,), 0.5, 0.0)
                     .j_modulator[0])
        assert abs(rate_full / rate_half - 2.0) < 0.01

    def test_zero_horizon_single_sample(self, paper_not):
        traj = tn.evolve_quasi_static(paper_not, (0.2,), 0.5, 0.0)
        assert len(traj.t) == 1 and traj.sigma[0] == 0.0

    @pytest.mark.parametrize("evolve", [tn.evolve_quasi_static, tn.evolve_full])
    def test_negative_horizon_rejected(self, paper_not, evolve):
        with pytest.raises(ConfigError, match="tau must be non-negative"):
            evolve(paper_not, (0.0,), 0.5, -5.0)

    def test_capacity_guard(self, paper_not):
        bad = tn.NeuronSpec(
            eps=paper_not.eps, h=paper_not.h, beta0=paper_not.beta0,
            eps_z=paper_not.eps_z, beta_r=paper_not.beta_r,
            mu_prime=paper_not.mu_prime, mu=paper_not.mu, capacity=0.0)
        with pytest.raises(StructuralError):
            tn.evolve_quasi_static(bad, (0.0,), 0.5, 1.0)


class TestTrajectoryInvariants:
    def test_times_increasing_and_sigma_monotone(self, paper_not):
        traj = tn.evolve_quasi_static(paper_not, (1.0,), 0.5, 1e8)
        assert np.all(np.diff(traj.t) > 0)
        assert np.all(np.diff(traj.sigma) >= -1e-10)
        assert np.all(traj.sigma_dot >= -1e-10)

    def test_csv_export(self, paper_not):
        traj = tn.evolve_quasi_static(paper_not, (1.0,), 0.5, 10.0)
        rows = zip(traj.t, traj.beta_z, traj.j_collector, traj.j_modulator,
                   traj.sigma_dot, traj.sigma)
        lines = format_csv(CSV_HEADER, rows).splitlines()
        assert lines[0].startswith("# units: natural")
        assert lines[1] == "t,beta_z,j_C,j_M,sigma_dot,sigma"
        assert len(lines) == 2 + len(traj.t)


class TestEvolveFull:
    def test_decoupled_reservoir_stays_put(self):
        spec = tn.NeuronSpec(eps=(2.0, 1.0), h=(0, 1), beta0=1.0, eps_z=1.0,
                             beta_r=0.4, mu_prime=0.0, mu=0.0)
        traj = tn.evolve_full(spec, (0.3,), 0.62, 50.0, per_decade=40)
        assert np.abs(traj.beta_z - 0.62).max() < 1e-12

    def test_matches_quasi_static_on_the_slow_manifold(self, paper_not):
        # gamma/mu = 1e4; after the fast transient the two descriptions agree
        # pointwise to a few per mille at the hot input.
        tau = 1e7
        full = tn.evolve_full(paper_not, (0.0,), 0.5, tau, per_decade=40)
        quasi = tn.evolve_quasi_static(paper_not, (0.0,), 0.5, tau,
                                       per_decade=40)
        mask = full.t > 10.0
        rel = np.abs(full.beta_z[mask] - quasi.beta_z[mask]) / np.abs(
            quasi.beta_z[mask])
        assert rel.max() < 0.05

    def test_fast_subsystem_tracks_virtual_temperature(self, paper_not):
        traj = tn.evolve_full(paper_not, (0.0,), 0.5, 1e5, per_decade=40)
        rho_c = traj.final_rho_collector
        dim = rho_c.shape[0]
        excited = (np.arange(dim) & 1) == 1
        p_z = float(np.trace(rho_c[np.ix_(excited, excited)]).real)
        beta_v = tn.virtual_temperature(paper_not.h, (0.5, 0.0),
                                        paper_not.eps, paper_not.eps_z)
        assert abs(p_z - paper_not.g_z(beta_v)) < 2e-3

    def test_entropy_rate_non_negative_along_full_trajectory(self, paper_not):
        traj = tn.evolve_full(paper_not, (1.0,), 0.5, 1e6, per_decade=40)
        assert traj.sigma_dot.min() >= -1e-10

    @pytest.mark.parametrize("gate, row", [("MAJ3", (0.0, 1.0, 1.0)),
                                           ("NOR", (0.0, 0.0))])
    def test_second_law_and_valid_states_over_the_full_horizon(self, gate, row):
        start = time.perf_counter()
        traj = tn.evolve_full(tn.preset(gate), row, 0.5, 1e8)
        assert time.perf_counter() - start < 5.0
        assert np.diff(traj.sigma).min() >= -1e-9
        for rho in (traj.final_rho_collector, traj.final_rho_modulator):
            assert np.abs(rho - rho.conj().T).max() <= 1e-12
            # BDF lets the trace drift by ~1e-8 over tau = 1e8.
            assert abs(np.trace(rho) - 1.0) <= 1e-7
            assert np.linalg.eigvalsh(rho).min() >= -1e-9


def test_import_leaves_the_integrators_unloaded():
    src = os.path.dirname(os.path.dirname(tn.__file__))
    code = "import sys, thermoneuron; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "False"


class TestAccumulatedDissipation:
    def test_zero_for_point_trajectory(self, paper_not):
        traj = tn.evolve_quasi_static(paper_not, (0.5,), 0.5, 0.0)
        assert accumulated_dissipation(traj) == 0.0

    def test_balanced_input_dissipates_negligibly(self, paper_not):
        # At beta_1 = beta_0 the virtual temperature equals the reference and
        # only the beta_z(0) transient plus the tiny modulator frustration
        # contribute; the rail input dissipates ~1e8 times more.
        tau = 1e8
        quiet = accumulated_dissipation(
            tn.evolve_quasi_static(paper_not, (0.5,), 0.5, tau))
        loud = accumulated_dissipation(
            tn.evolve_quasi_static(paper_not, (1.0,), 0.5, tau))
        assert quiet >= 0.0
        assert quiet <= 1e-6 * loud

    def test_grows_with_input_gap(self):
        total = []
        for eps_in in (5.0, 10.0, 20.0):
            spec = tn.inverter(eps_in, 0.5, 0.1, **PAPER_NOT_KW)
            traj = tn.evolve_quasi_static(spec, (1.0,), 0.5, 1e8)
            total.append(accumulated_dissipation(traj))
        assert total[0] < total[1] < total[2]

    def test_non_negative_on_random_machines(self):
        from conftest import random_inputs, random_neuron
        rng = np.random.default_rng(17)
        for _ in range(100):
            spec = random_neuron(rng)
            inputs = random_inputs(rng, spec)
            beta_z0 = float(rng.uniform(spec.beta_hot, spec.beta_cold))
            traj = tn.evolve_quasi_static(spec, inputs, beta_z0, 1e5,
                                          per_decade=25)
            assert traj.sigma_dot.min() >= -1e-10
            assert accumulated_dissipation(traj) >= 0.0
