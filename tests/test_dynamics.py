"""Slow calorimetric evolution, full co-integration, and dissipation accounting."""

import dataclasses
import io
import json
import os
import pathlib
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import thermoneuron as tn
from thermoneuron import dynamics
from thermoneuron.dynamics import CSV_HEADER
from thermoneuron.errors import ConfigError, StructuralError
from thermoneuron.neuron import RATE_SEPARATION
from thermoneuron.quantum import QubitRegister, gibbs_register
from thermoneuron.serialize import format_csv

PAPER_NOT_KW = dict(mu=1e-4)


@pytest.fixture(scope="module")
def paper_not():
    return tn.inverter(20.0, 0.1, **PAPER_NOT_KW)


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

    @pytest.mark.parametrize("evolve", [tn.evolve_quasi_static, tn.evolve_full])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_horizon_rejected(self, paper_not, evolve, value):
        with pytest.raises(ConfigError, match="tau must be non-negative and finite"):
            evolve(paper_not, (0.0,), 0.5, value)

    @pytest.mark.parametrize("evolve", [tn.evolve_quasi_static, tn.evolve_full])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_start_rejected(self, paper_not, evolve, value):
        with pytest.raises(ConfigError, match="beta_z0 must be finite"):
            evolve(paper_not, (0.0,), value, 10.0)

    @pytest.mark.parametrize("evolve", [tn.evolve_quasi_static, tn.evolve_full])
    @pytest.mark.parametrize("where", ["input", "beta_z0"])
    def test_beta_overflowing_a_level_energy_rejected(self, evolve, where):
        # 1e308 is finite, but not times MAJ3's largest level energy (360).
        spec = tn.preset("MAJ3")
        run = lambda beta: (evolve(spec, (0.0, 1.0, beta), 0.5, 10.0) if where == "input"
                            else evolve(spec, (0.0, 1.0, 1.0), beta, 10.0))
        with pytest.raises(ConfigError, match="largest level energy 360; got 1e\\+308"):
            run(1e308)
        # The largest finite product is still accepted, and gives finite output.
        traj = run(np.nextafter(np.finfo(float).max / 360.0, 0.0))
        assert np.isfinite(traj.sigma_dot).all() and np.isfinite(traj.sigma).all()

    @pytest.mark.parametrize("spec", [
        tn.preset("NOT"), tn.preset("NOR"), tn.preset("MAJ3"),
        # One negative gap: the largest level energy in magnitude is -4.
        tn.build_neuron((-1.0, -3.0), (0, 1), 0.5, 2.0)], ids=["NOT", "NOR", "MAJ3", "negative"])
    def test_overflow_message_names_the_enumerated_level_energy(self, spec):
        e_max = float(np.abs(dynamics.collector_register(spec).level_energies()).max())
        want = (f"input 1 must be finite, also times the largest level energy "
                f"{e_max:.6g}; got 1e+308")
        with pytest.raises(ConfigError) as err:
            dynamics._check_run(spec, (1e308,) + (0.0,) * (spec.n - 1), 0.5, 1.0)
        assert str(err.value) == want

    def test_quasi_static_runs_need_no_register(self):
        # 11 inputs: the collector would have 13 qubits, past MAX_QUBITS.
        spec = tn.weights_to_neuron([-5.5] + [1.0] * 11, tn.DesignConfig())
        traj = tn.evolve_quasi_static(spec, (0.0,) * 11, 0.5, 1e3)
        assert np.isfinite(traj.beta_z).all() and np.isfinite(traj.sigma).all()
        with pytest.raises(StructuralError, match="register capped at 12 qubits, got 13"):
            tn.evolve_full(spec, (0.0,) * 11, 0.5, 1e3)

    @pytest.mark.parametrize("evolve", [tn.evolve_quasi_static, tn.evolve_full])
    def test_input_count_checked(self, paper_not, evolve):
        with pytest.raises(StructuralError, match="expected 1 inputs, got 2"):
            evolve(paper_not, (0.0, 1.0), 0.5, 1.0)

    def test_capacity_guard(self, paper_not):
        # A capacity-0 machine cannot be built, so it never reaches a run.
        with pytest.raises(StructuralError, match="capacity must be positive"):
            bad = tn.NeuronSpec(
                eps=paper_not.eps, h=paper_not.h, beta0=paper_not.beta0,
                eps_z=paper_not.eps_z, beta_r=paper_not.beta_r,
                mu_prime=paper_not.mu_prime, mu=paper_not.mu, capacity=0.0)
            tn.evolve_quasi_static(bad, (0.0,), 0.5, 1.0)


class TestTrajectoryInvariants:
    def test_times_increasing_and_sigma_monotone(self, paper_not):
        traj = tn.evolve_quasi_static(paper_not, (1.0,), 0.5, 1e8)
        assert np.all(np.diff(traj.t) > 0)
        assert np.all(np.diff(traj.sigma) >= -1e-10)
        assert np.all(traj.sigma_dot >= -1e-10)

    @pytest.mark.parametrize("evolve", [tn.evolve_quasi_static, tn.evolve_full])
    def test_sigma_is_the_running_trapezoid_of_sigma_dot(self, evolve):
        from scipy.integrate import cumulative_trapezoid
        for tau in (1e4, 0.0):
            traj = evolve(tn.preset("NOR"), (1.0, 0.0), 0.5, tau)
            want = cumulative_trapezoid(traj.sigma_dot, traj.t, initial=0.0)
            assert traj.sigma.tobytes() == want.tobytes()
        assert traj.sigma.tolist() == [0.0]

    def test_sigma_is_scipys_cumulative_trapezoid_bit_for_bit(self):
        from scipy.integrate import cumulative_trapezoid
        rng = np.random.default_rng(3)
        col = lambda n: np.zeros(n)
        for _ in range(200):
            n = int(rng.integers(1, 400))
            t = np.cumsum(rng.uniform(1e-6, 10.0, n)) * 10.0 ** rng.uniform(-3, 8)
            sdot = rng.normal(size=n) * 10.0 ** rng.uniform(-12, 6)
            traj = dynamics.Trajectory(t=t, beta_z=col(n), j_collector=col(n),
                                       j_modulator=col(n), sigma_dot=sdot)
            want = cumulative_trapezoid(sdot, t, initial=0.0)
            assert traj.sigma.tobytes() == want.tobytes()

    def test_sigma_is_derived_not_passed(self):
        col = np.zeros(3)
        with pytest.raises(TypeError, match="sigma"):
            dynamics.Trajectory(t=np.arange(3.0), beta_z=col, j_collector=col,
                                j_modulator=col, sigma_dot=col, sigma=col)

    def test_csv_export(self, paper_not):
        traj = tn.evolve_quasi_static(paper_not, (1.0,), 0.5, 10.0)
        out = io.StringIO()
        format_csv(CSV_HEADER, (traj.t, traj.beta_z, traj.j_collector,
                                traj.j_modulator, traj.sigma_dot, traj.sigma), out)
        lines = out.getvalue().splitlines()
        assert lines[0].startswith("# units: natural")
        assert lines[1] == "t,beta_z,j_C,j_M,sigma_dot,sigma"
        assert len(lines) == 2 + len(traj.t)


class TestEvolveFull:
    def test_decoupled_reservoir_stays_put(self):
        spec = tn.NeuronSpec(eps=(2.0, 1.0), h=(0, 1), beta0=1.0, eps_z=1.0,
                             beta_r=0.4, mu_prime=0.0, mu=0.0)
        traj = tn.evolve_full(spec, (0.3,), 0.62, 50.0)
        assert np.abs(traj.beta_z - 0.62).max() < 1e-12

    def test_matches_quasi_static_on_the_slow_manifold(self, paper_not):
        # gamma/mu = 1e4; after the fast transient the two descriptions agree
        # pointwise to a few per mille at the hot input.
        tau = 1e7
        full = tn.evolve_full(paper_not, (0.0,), 0.5, tau)
        quasi = tn.evolve_quasi_static(paper_not, (0.0,), 0.5, tau)
        mask = full.t > 10.0
        rel = np.abs(full.beta_z[mask] - quasi.beta_z[mask]) / np.abs(
            quasi.beta_z[mask])
        assert rel.max() < 0.05

    def test_fast_subsystem_tracks_virtual_temperature(self, paper_not):
        traj = tn.evolve_full(paper_not, (0.0,), 0.5, 1e5)
        rho_c = traj.final_rho_collector
        dim = rho_c.shape[0]
        excited = (np.arange(dim) & 1) == 1
        p_z = float(np.trace(rho_c[np.ix_(excited, excited)]).real)
        beta_v = tn.virtual_temperature(paper_not.h, (0.5, 0.0),
                                        paper_not.eps, paper_not.eps_z)
        assert abs(p_z - paper_not.g_z(beta_v)) < 2e-3

    def test_entropy_rate_non_negative_along_full_trajectory(self, paper_not):
        traj = tn.evolve_full(paper_not, (1.0,), 0.5, 1e6)
        assert traj.sigma_dot.min() >= -1e-10

    def test_detuning_within_resonance_tolerance_runs(self):
        # eps[0] off resonance by 5e-10 < RESONANCE_TOL: the spec is valid, so
        # the full model runs it, detuning included, and ends where the
        # exact preset does.
        exact = tn.preset("NOT")
        nudged = dataclasses.replace(exact, eps=(exact.eps[0] + 5e-10,) + exact.eps[1:])
        for row in ((0.0,), (1.0,)):
            got = tn.evolve_full(nudged, row, 0.5, 1e8).endpoint
            assert abs(got - tn.evolve_full(exact, row, 0.5, 1e8).endpoint) < 1e-9

    @pytest.mark.parametrize("gate, row", [("NOT", (0.0,)), ("NOR", (1.0, 0.0)),
                                           ("MAJ3", (0.0, 1.0, 1.0)), ("NOR", (0.0, -1e-3))])
    def test_starts_in_the_dense_product_gibbs_state_bit_for_bit(self, gate, row):
        spec, beta_z0 = tn.preset(gate), 0.5
        traj = tn.evolve_full(spec, row, beta_z0, 0.0)
        want_c = gibbs_register(dynamics.collector_register(spec),
                                (spec.beta0,) + row + (beta_z0,))
        want_m = gibbs_register(QubitRegister((spec.eps_z,)), (spec.beta_r,))
        assert np.array_equal(traj.final_rho_collector.diagonal().real,
                              want_c.diagonal().real)
        assert np.array_equal(traj.final_rho_modulator.diagonal().real,
                              want_m.diagonal().real)

    def test_negative_input_temperature_warns_nothing(self):
        # A population-inverted input bath is a valid row of the full model.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = tn.evolve_full(tn.preset("NOR"), (0.0, -1e-3), 0.5, 1e3)
        assert np.isfinite(traj.endpoint)

    @pytest.mark.parametrize("gate, row", [("MAJ3", (0.0, 1.0, 1.0)),
                                           ("NOR", (0.0, 0.0))])
    def test_second_law_and_valid_states_over_the_full_horizon(self, gate, row):
        start = time.perf_counter()
        traj = tn.evolve_full(tn.preset(gate), row, 0.5, 1e8)
        assert time.perf_counter() - start < 5.0
        assert np.diff(traj.sigma).min() >= -1e-9
        for rho in (traj.final_rho_collector, traj.final_rho_modulator):
            assert np.abs(rho - rho.conj().T).max() <= 1e-12
            # LSODA lets the trace drift by 2e-10 to 1.5e-8 over tau = 1e8
            # (measured on the benchmark rows, NOR (0,0) and MAJ3).
            assert abs(np.trace(rho) - 1.0) <= 1e-7
            assert np.linalg.eigvalsh(rho).min() >= -1e-9

    def test_second_law_and_valid_states_on_random_machines(self):
        # 40 random machines with mu log-uniform in [1e-6, 1e-1], 8 of them
        # weakly separated, each run to three horizons, so that the final
        # states include ones inside the fast transient.  Measured over all
        # three: sigma_dot >= 6.3e-11, |Tr - 1| <= 1.9e-11, eigenvalues >=
        # 5.1e-7 (3.7e-6 at tau = 1, 2.6e-6 at tau = 1e2).
        from conftest import random_inputs, random_neuron
        rng = np.random.default_rng(5)
        weak_machines = 0
        for _ in range(40):
            mu = float(10.0 ** rng.uniform(-6.0, -1.0))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                spec = random_neuron(rng, mu=mu)
            # A large mu comes within RATE_SEPARATION of gamma, and says so.
            weak = spec.gamma / max(spec.mu, spec.mu_prime) < RATE_SEPARATION
            assert [(w.category, str(w.message).split(":")[0]) for w in caught] == (
                [(UserWarning, "weak time-scale separation")] if weak else [])
            weak_machines += weak
            beta_z0 = float(rng.uniform(spec.beta_hot, spec.beta_cold))
            inputs = random_inputs(rng, spec)
            for tau in (1.0, 1e2, 1e5):
                traj = tn.evolve_full(spec, inputs, beta_z0, tau)
                assert traj.sigma_dot.min() >= -1e-10
                for rho in (traj.final_rho_collector, traj.final_rho_modulator):
                    assert np.abs(rho - rho.conj().T).max() <= 1e-12
                    assert abs(np.trace(rho) - 1.0) <= 1e-7
                    assert np.linalg.eigvalsh(rho).min() >= -1e-9
        assert 0 < weak_machines < 40

    def test_pair_eigenvalues_match_eigh(self):
        # The reference: LAPACK's eigenvalues of random Hermitian pair blocks,
        # and their first-order rates u^H dB u.  Measured: 8.9e-16 and 1.8e-15.
        def block(v):
            c = v[:, 2] + 1j * v[:, 3]
            return np.stack((np.stack((v[:, 0], c), -1),
                             np.stack((c.conj(), v[:, 1]), -1)), -2)

        def eigh(pair, dpair):
            w, u = np.linalg.eigh(block(pair))
            return w, np.einsum("sji,sjk,ski->si", u.conj(), block(dpair), u).real

        rng = np.random.default_rng(11)
        pair = np.column_stack((rng.uniform(0.0, 1.0, (1000, 2)),
                                rng.uniform(-0.5, 0.5, (1000, 2))))
        dpair = rng.normal(size=(1000, 4))
        w, dw = eigh(pair, dpair)
        got_w, got_dw = dynamics._pair_eigenvalues(pair, dpair)
        assert np.abs(got_w[:, ::-1] - w).max() <= 1e-14
        assert np.abs(got_dw[:, ::-1] - dw).max() <= 1e-14

        # A degenerate block (p_a = p_b, c = 0) takes the r = 0 branch, and
        # both forms give -2 dm log m with no warning.
        m = np.array([0.3, 0.125, 1e-3])
        pair = np.column_stack((m, m, np.zeros(3), np.zeros(3)))
        dpair = rng.normal(size=(3, 4))
        want = -(dpair[:, 0] + dpair[:, 1]) * np.log(m)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got_w, got_dw = dynamics._pair_eigenvalues(pair, dpair)
        assert np.array_equal(got_w, np.column_stack((m, m)))
        for rate in (dynamics._entropy_rate(got_w, got_dw),
                     dynamics._entropy_rate(*eigh(pair, dpair))):
            assert np.allclose(rate, want, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("gate, row", [("NOT", (0.0,)), ("NOT", (1.0,)),
                                           ("NOR", (1.0, 0.0)), ("NOR", (1.0, 1.0))])
    def test_matches_stock_bdf_on_the_benchmark_rows(self, monkeypatch, gate, row):
        # The rows, start and horizon of the benchmark's full-dynamics cases,
        # by LSODA and by scipy's BDF at the same tolerances.  Measured: the
        # endpoints agree to 3.2e-14, sigma(tau) to 2.7e-9 relative and
        # beta_z to 5.8e-8 along the trajectory.
        import scipy.integrate
        got = tn.evolve_full(tn.preset(gate), row, 0.5, 1e8)
        stock, asked = scipy.integrate.solve_ivp, []

        def bdf(*args, **kwargs):
            asked.append(kwargs["method"])
            return stock(*args, **dict(kwargs, method="BDF"))

        monkeypatch.setattr(scipy.integrate, "solve_ivp", bdf)
        want = tn.evolve_full(tn.preset(gate), row, 0.5, 1e8)
        assert asked == ["LSODA"]
        assert got.t.tobytes() == want.t.tobytes()
        assert abs(got.endpoint - want.endpoint) <= 1e-12
        assert abs(got.sigma[-1] - want.sigma[-1]) <= 1e-8 * abs(want.sigma[-1])
        assert np.abs(got.beta_z - want.beta_z).max() <= 1e-7


def test_import_leaves_the_integrators_unloaded():
    # A process that only imports the package or its CLI loads no scipy
    # module; the integrators and linear algebra come in on first use.
    src = os.path.dirname(os.path.dirname(tn.__file__))
    code = ("import sys, thermoneuron, thermoneuron.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "[]"


def test_solve_reemits_its_warnings_once_on_success():
    def rhs(_t, y):
        warnings.warn("from rhs", RuntimeWarning)
        return -y

    with warnings.catch_warnings(record=True) as got:
        warnings.simplefilter("always")
        times, ys = dynamics._solve(rhs, None, np.ones(1), 10.0, "failed: {}",
                                    1e-8, 1e-12)
    assert [(w.category, str(w.message)) for w in got] == [(RuntimeWarning, "from rhs")]
    assert abs(ys[0, -1] - np.exp(-10.0)) < 1e-8


def test_zero_horizon_simulate_loads_no_scipy(tmp_path):
    # tau = 0 integrates nothing, so neither mode needs scipy.
    from thermoneuron.cli import main
    machine = str(tmp_path / "nor.json")
    assert main(["design", "--gate", "NOR", "--out", machine]) == 0
    src = os.path.dirname(os.path.dirname(tn.__file__))
    code = ("import sys; from thermoneuron.cli import main; "
            "codes = [main(['simulate', sys.argv[1], '--inputs', '1', '0', '--tau', '0', "
            "'--mode', m, '--out', sys.argv[2]]) for m in ('quasi', 'full')]; "
            "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code, machine, str(tmp_path / "run.csv")],
                         capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.splitlines()[-1] == "[0, 0] []"


def test_closed_form_commands_load_no_scipy(tmp_path):
    # design, steady, sweep and verify need no integrator, so a session of
    # them, one after another in one process, never pays for scipy's import.
    nor_tt, xor_tt = tmp_path / "nor.tt", tmp_path / "xor.tt"
    nor_tt.write_text("0 0 : 1\n0 1 : 0\n1 0 : 0\n1 1 : 0\n")
    xor_tt.write_text("0 0 : 0\n0 1 : 1\n1 0 : 1\n1 1 : 0\n")
    gate, table, net = (str(tmp_path / name) for name in ("g.json", "t.json", "x.json"))
    commands = [
        ["design", "--gate", "NOR", "--out", gate],
        ["design", "--table", str(nor_tt), "--out", table],
        ["design", "--table", str(xor_tt), "--layers", "2,1", "--seed", "7", "--out", net],
        ["steady", table, "--inputs", "1", "0"],
        ["steady", net, "--inputs", "0", "1"],
        ["sweep", gate, "--grid", "0:1:5", "--out", str(tmp_path / "s.csv")],
        ["verify", gate, "--gate", "NOR"],
    ]
    src = os.path.dirname(os.path.dirname(tn.__file__))
    code = ("import json, sys; from thermoneuron.cli import main; "
            "codes = [main(argv) for argv in json.loads(sys.argv[1])]; "
            "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code, json.dumps(commands)],
                         capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.splitlines()[-1] == f"{[0] * len(commands)} []"


def test_full_dynamics_benchmark_setup_loads_no_scipy(tmp_path):
    # The benchmark's full-dynamics set-up (the NOT, NOR and MAJ3 presets, a
    # small NOT collector and one steady state as warm-up) is timed as
    # set-up, not as work; it needs no integrator, so it loads no scipy.
    perfbench = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
    src = os.path.dirname(os.path.dirname(tn.__file__))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
            "workloads.FullDynamics().setup(sys.argv[2]); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code, str(perfbench), str(tmp_path)],
                         capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.splitlines()[-1] == "[]"


class TestAccumulatedDissipation:
    def test_zero_for_point_trajectory(self, paper_not):
        traj = tn.evolve_quasi_static(paper_not, (0.5,), 0.5, 0.0)
        assert traj.sigma[-1] == 0.0

    def test_balanced_input_dissipates_negligibly(self, paper_not):
        # At beta_1 = beta_0 the virtual temperature equals the reference and
        # only the beta_z(0) transient plus the tiny modulator frustration
        # contribute; the rail input dissipates ~1e8 times more.
        tau = 1e8
        quiet = tn.evolve_quasi_static(paper_not, (0.5,), 0.5, tau).sigma[-1]
        loud = tn.evolve_quasi_static(paper_not, (1.0,), 0.5, tau).sigma[-1]
        assert quiet >= 0.0
        assert quiet <= 1e-6 * loud

    def test_grows_with_input_gap(self):
        total = []
        for eps_in in (5.0, 10.0, 20.0):
            spec = tn.inverter(eps_in, 0.1, **PAPER_NOT_KW)
            traj = tn.evolve_quasi_static(spec, (1.0,), 0.5, 1e8)
            total.append(traj.sigma[-1])
        assert total[0] < total[1] < total[2]

    @pytest.mark.parametrize("machine, row", [
        ("NOT", (0.0,)), ("NOT", (1.0,)), ("NOT", (0.3,)),
        ("NOR", (0.0, 0.0)), ("NOR", (1.0, 0.0)), ("NOR", (1.0, 1.0)),
        ("MAJ3", (0.0, 1.0, 1.0)), ("MAJ3", (0.0, 0.0, 0.0)),
        ("inverter", (0.0,)), ("inverter", (1.0,))])
    def test_matches_the_closed_form_entropy_balance(self, machine, row):
        # The identity in the dynamics module docstring, against the sampled
        # running integral.  Measured: at most 1.8e-9 sigma(tau) apart.
        spec = tn.inverter(5.0, 0.1) if machine == "inverter" else tn.preset(machine)
        beta_z0, tau = 0.5, 1e8
        traj = tn.evolve_quasi_static(spec, row, beta_z0, tau)
        beta_v = tn.virtual_temperature(spec.h, (spec.beta0,) + row, spec.eps, spec.eps_z)
        mu, mu_p, cap, beta_r = spec.mu, spec.mu_prime, spec.capacity, spec.beta_r
        drift = mu * mu_p * spec.eps_z * (spec.g_z(beta_r) - spec.g_z(beta_v))
        want = (-cap * (traj.beta_z ** 2 - beta_z0 ** 2) / 2
                + (cap * (mu * beta_v + mu_p * beta_r) * (traj.beta_z - beta_z0)
                   + drift * (beta_v - beta_r) * traj.t) / (mu + mu_p))
        assert np.abs(traj.sigma - want).max() <= 1e-8 * traj.sigma[-1]

    def test_non_negative_on_random_machines(self):
        from conftest import random_inputs, random_neuron
        rng = np.random.default_rng(17)
        for _ in range(100):
            spec = random_neuron(rng)
            inputs = random_inputs(rng, spec)
            beta_z0 = float(rng.uniform(spec.beta_hot, spec.beta_cold))
            traj = tn.evolve_quasi_static(spec, inputs, beta_z0, 1e5)
            assert traj.sigma_dot.min() >= -1e-10
            assert traj.sigma[-1] >= 0.0
