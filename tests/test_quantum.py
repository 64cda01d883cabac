"""Density-matrix core: Fermi populations, reset dissipators, integration,
steady states, heat currents, and entropy accounting."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

import thermoneuron as tn
from thermoneuron.dynamics import (collector_contacts, collector_hamiltonian,
                                   collector_register)
from thermoneuron import quantum
from thermoneuron.errors import (DegenerateSteadyStateError, SolverError,
                                 StructuralError)
from thermoneuron.quantum import BathContact, QubitRegister
from thermoneuron.virtual import coupled_levels
from conftest import (random_density_matrix, random_inputs, random_neuron,
                      thermalize_qubit, validate_density_matrix)

# Frozen from 50-digit evaluation of 1/(1 + e).
FERMI_AT_ONE = 0.26894142136999512075


class TestFermiPopulation:
    def test_symmetry_point(self):
        assert tn.fermi_population(0.0) == 0.5

    def test_limits(self):
        assert tn.fermi_population(math.inf) == 0.0
        assert tn.fermi_population(-math.inf) == 1.0

    def test_at_one(self):
        assert abs(tn.fermi_population(1.0) - FERMI_AT_ONE) < 1e-12

    def test_strictly_decreasing_and_in_range(self):
        # |x| <= 30 keeps increments of 1/(1+e^x) above float64 resolution.
        xs = np.linspace(-30, 30, 401)
        vals = [tn.fermi_population(x) for x in xs]
        assert all(0.0 < v < 1.0 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            tn.fermi_population(math.nan)


class TestGibbsQubit:
    def test_infinite_temperature(self):
        assert np.allclose(tn.gibbs_qubit(0.0, 3.7), np.diag([0.5, 0.5]))

    def test_ground_state_limit(self):
        assert np.allclose(tn.gibbs_qubit(1e6, 1.0), np.diag([1.0, 0.0]), atol=1e-12)

    def test_unit_beta_unit_gap(self):
        rho = tn.gibbs_qubit(1.0, 1.0)
        assert abs(rho[1, 1].real - FERMI_AT_ONE) < 1e-12
        assert abs(rho[0, 0].real - (1 - FERMI_AT_ONE)) < 1e-12
        validate_density_matrix(rho)


class TestQubitRegister:
    def test_level_energies(self):
        reg = QubitRegister((2.0, 1.0, 0.5))
        e = reg.level_energies()
        assert e[0b000] == 0.0
        assert e[0b101] == 2.5
        assert e[0b111] == 3.5

    def test_cap(self):
        with pytest.raises(StructuralError):
            QubitRegister((1.0,) * 13)

    def test_nonfinite_rejected(self):
        with pytest.raises(StructuralError):
            QubitRegister((1.0, math.inf))


class TestBathContact:
    def test_rate_positive(self):
        with pytest.raises(StructuralError):
            BathContact(0, 1.0, 0.0)

    def test_negative_beta_warns(self):
        with pytest.warns(UserWarning):
            BathContact(0, -1.0, 1.0)

    def test_warning_names_the_builder(self):
        with pytest.warns(UserWarning, match="negative inverse") as record:
            BathContact(0, -1.0, 1.0)
        assert [w.filename for w in record] == [__file__]


class TestResetDissipator:
    def test_thermal_fixed_point(self):
        reg = QubitRegister((1.0, 2.0))
        rho = tn.gibbs_register(reg, (0.7, 0.3))
        out = tn.reset_dissipator(rho, BathContact(1, 0.3, 1.3), reg)
        assert np.abs(out).max() < 1e-14

    def test_single_qubit_by_hand(self):
        # gamma (tau(0) - rho) with rho = |0><0|: diag(-1/2, +1/2).
        reg = QubitRegister((1.0,))
        rho = np.diag([1.0, 0.0]).astype(complex)
        out = tn.reset_dissipator(rho, BathContact(0, 0.0, 1.0), reg)
        assert np.allclose(out, np.diag([-0.5, 0.5]))

    def test_traceless_on_random_states(self):
        rng = np.random.default_rng(11)
        reg = QubitRegister((1.0, 0.5, 2.0))
        for _ in range(10):
            rho = random_density_matrix(reg.dim, rng)
            out = tn.reset_dissipator(rho, BathContact(1, 0.8, 0.7), reg)
            assert abs(np.trace(out)) < 1e-13
            assert np.abs(out - out.conj().T).max() < 1e-13

    def test_dimension_mismatch(self):
        reg = QubitRegister((1.0, 0.5))
        with pytest.raises(StructuralError):
            tn.reset_dissipator(np.eye(2, dtype=complex) / 2,
                                BathContact(0, 1.0, 1.0), reg)


def _einsum_reset(rho, contact, reg):
    """The reset dissipator by the einsum partial trace."""
    k = contact.qubit_index
    tau = tn.gibbs_qubit(contact.beta, reg.gaps[k])
    return contact.rate * (thermalize_qubit(rho, k, reg.m, tau) - rho)


def _einsum_rhs(rho, h0, hint, contacts, reg):
    h = h0 + hint
    out = -1j * (h @ rho - rho @ h)
    for contact in contacts:
        out = out + _einsum_reset(rho, contact, reg)
    return out


class TestGatheredReset:
    """The resets, computed on a flipped view of the state with no index
    table or cache, equal the einsum partial trace bit for bit."""

    CASES = {
        "no-contacts": ((1.0, 0.5), []),
        "two-on-one-qubit": ((2.0, 1.0, 1.0), [(1, 0.3, 1.0), (1, 1.7, 1e-3)]),
        "negative-beta": ((1.5, 0.7), [(0, -0.8, 0.9), (1, 0.4, 1.1)]),
    }

    @staticmethod
    def _assert_matches_oracle(reg, contacts, rng):
        h0 = reg.free_hamiltonian()
        hint = np.diag(rng.normal(size=reg.dim)).astype(complex)  # commutes with h0
        rho = random_density_matrix(reg.dim, rng)
        assert np.array_equal(tn.lindblad_rhs(rho, h0, hint, contacts, reg),
                              _einsum_rhs(rho, h0, hint, contacts, reg))
        for contact in contacts:
            assert np.array_equal(tn.reset_dissipator(rho, contact, reg),
                                  _einsum_reset(rho, contact, reg))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_edge_registers(self, case):
        gaps, contacts = self.CASES[case]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            contacts = [BathContact(*c) for c in contacts]
        self._assert_matches_oracle(QubitRegister(gaps), contacts,
                                    np.random.default_rng(4))

    def test_random_registers(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            m = int(rng.integers(1, 6))
            reg = QubitRegister(tuple(rng.uniform(-3.0, 3.0, m)))
            qubits = rng.integers(0, m, int(rng.integers(0, 2 * m + 1)))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                contacts = [BathContact(int(k), float(rng.uniform(-2.0, 3.0)),
                                        float(rng.uniform(0.01, 3.0))) for k in qubits]
            self._assert_matches_oracle(reg, contacts, rng)

    def test_master_integration_is_unchanged(self):
        # perfbench's integrate-master operation: the same number of RHS
        # calls, and the same bits, as with the einsum RHS.
        _, reg, h0, hint, contacts = _not_collector()
        rho0 = tn.gibbs_register(reg, (1.0, 0.3, 0.5))
        runs = []
        for fn in (tn.lindblad_rhs, _einsum_rhs):
            calls = []
            rhs = lambda r, fn=fn: calls.append(1) or fn(r, h0, hint, contacts, reg)
            runs.append((tn.integrate_master(rho0, rhs, 1e3), len(calls)))
        (got, n_got), (want, n_want) = runs
        assert n_got == n_want and np.array_equal(got, want)

    def test_qubit_index_checked_on_every_call(self):
        reg = QubitRegister((1.0, 0.5))
        rho = np.eye(4, dtype=complex) / 4
        tn.reset_dissipator(rho, BathContact(1, 1.0, 1.0), reg)
        # -1 would otherwise read gaps[-1], the last qubit's gap.
        for k in (2, -1, 2):
            with pytest.raises(StructuralError, match=f"qubit index {k} outside"):
                tn.reset_dissipator(rho, BathContact(k, 1.0, 1.0), reg)


def _not_collector():
    """Three-qubit collector of the modest NOT machine: gaps (2, 1, 1)."""
    spec = tn.build_neuron((2.0, 1.0), (0, 1), 1.0, 1.0, mu=1e-4)
    reg = collector_register(spec)
    h0, hint = collector_hamiltonian(spec)
    contacts = collector_contacts(spec, [0.3], 0.5)
    return spec, reg, h0, hint, contacts


class TestLindbladRHS:
    def test_global_fixed_point_without_interaction(self):
        reg = QubitRegister((2.0, 1.0, 1.0))
        betas = (1.0, 0.3, 0.5)
        rho = tn.gibbs_register(reg, betas)
        contacts = [BathContact(i, b, 1.0) for i, b in enumerate(betas)]
        out = tn.lindblad_rhs(rho, reg.free_hamiltonian(),
                              np.zeros((8, 8), dtype=complex), contacts, reg)
        assert np.abs(out).max() < 1e-14

    def test_traceless_and_hermiticity_preserving(self):
        _, reg, h0, hint, contacts = _not_collector()
        rng = np.random.default_rng(5)
        for _ in range(5):
            rho = random_density_matrix(reg.dim, rng)
            out = tn.lindblad_rhs(rho, h0, hint, contacts, reg)
            assert abs(np.trace(out)) < 1e-12
            assert np.abs(out - out.conj().T).max() < 1e-12

    def test_noncommuting_interaction_rejected(self):
        reg = QubitRegister((2.0, 1.0))
        h0 = reg.free_hamiltonian()
        bad = np.zeros((4, 4), dtype=complex)
        bad[0, 3] = bad[3, 0] = 0.5  # couples levels split by 3 units
        with pytest.raises(StructuralError, match="conserve energy"):
            tn.lindblad_rhs(np.eye(4, dtype=complex) / 4, h0, bad,
                            [BathContact(0, 1.0, 1.0)], reg)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("which", ["hint", "h0"])
    def test_non_finite_hamiltonian_rejected(self, bad, which):
        # max|[Hint, H0]| > tol is False for NaN, so the commutator check
        # alone would let these through to a non-finite RHS.
        _, reg, h0, hint, contacts = _not_collector()
        hams = {"h0": h0.copy(), "hint": hint.copy()}
        hams[which][0, 0] = bad
        with pytest.raises(StructuralError, match="must be finite"):
            tn.lindblad_rhs(np.eye(8, dtype=complex) / 8, hams["h0"], hams["hint"],
                            contacts, reg)

    def test_stack_equals_calls_slice_by_slice(self):
        # Random registers and stacks of random operators (not states: the
        # map is linear), compared by their bytes, so signed zeros count too.
        rng = np.random.default_rng(17)
        for _ in range(40):
            m = int(rng.integers(1, 6))
            reg = QubitRegister(tuple(rng.uniform(-3.0, 3.0, m)))
            h0 = reg.free_hamiltonian()
            hint = np.diag(rng.normal(size=reg.dim)).astype(complex)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                contacts = [BathContact(int(k), float(rng.uniform(-2.0, 3.0)),
                                        float(rng.uniform(0.01, 3.0)))
                            for k in rng.integers(0, m, int(rng.integers(0, 2 * m + 1)))]
            shape = ((int(rng.integers(1, 6)),), (2, 3))[int(rng.integers(0, 2))]
            stack = (rng.normal(size=shape + (reg.dim, reg.dim))
                     + 1j * rng.normal(size=shape + (reg.dim, reg.dim)))
            got = tn.lindblad_rhs(stack, h0, hint, contacts, reg)
            assert got.shape == stack.shape
            for idx in np.ndindex(shape):
                want = tn.lindblad_rhs(stack[idx], h0, hint, contacts, reg)
                assert got[idx].tobytes() == want.tobytes()
            for contact in contacts:
                got = tn.reset_dissipator(stack, contact, reg)
                for idx in np.ndindex(shape):
                    want = tn.reset_dissipator(stack[idx], contact, reg)
                    assert got[idx].tobytes() == want.tobytes()

    def test_stack_of_the_wrong_dimension_rejected(self):
        _, reg, h0, hint, contacts = _not_collector()
        with pytest.raises(StructuralError, match="does not match"):
            tn.lindblad_rhs(np.zeros((3, 4, 4), dtype=complex), h0, hint, contacts, reg)

    def test_steady_state_self_consistency(self):
        _, reg, h0, hint, contacts = _not_collector()
        rhs = lambda r: tn.lindblad_rhs(r, h0, hint, contacts, reg)
        rho = tn.steady_state(rhs, reg.dim)
        assert np.abs(rhs(rho)).max() <= 1e-10


class TestIntegrateMaster:
    def test_zero_horizon(self):
        rng = np.random.default_rng(3)
        rho0 = random_density_matrix(4, rng)
        out = tn.integrate_master(rho0, lambda r: r, 0.0)
        assert np.array_equal(out, rho0)

    def test_single_qubit_relaxation_analytic(self):
        # dp/dt = gamma (g - p) => p(t) = g + (p0 - g) exp(-gamma t).
        reg = QubitRegister((1.0,))
        contact = BathContact(0, 0.8, 1.0)
        h0 = reg.free_hamiltonian()
        zero = np.zeros((2, 2), dtype=complex)
        rhs = lambda r: tn.lindblad_rhs(r, h0, zero, [contact], reg)
        rho0 = np.diag([0.1, 0.9]).astype(complex)
        g = tn.fermi_population(0.8)
        for t in (0.3, 1.0, 4.0):
            rho_t = tn.integrate_master(rho0, rhs, t)
            expected = g + (0.9 - g) * math.exp(-t)
            assert abs(rho_t[1, 1].real - expected) < 1e-8

    @pytest.mark.filterwarnings("ignore:weak time-scale separation")
    def test_long_horizon_matches_steady_state(self):
        # mu = 1e-2 trades some time-scale separation (ratio 30, warned) for
        # relaxation to equilibrium well within the horizon.
        spec = tn.build_neuron((2.0, 1.0), (0, 1), 1.0, 1.0, mu=1e-2)
        reg = collector_register(spec)
        h0, hint = collector_hamiltonian(spec)
        contacts = collector_contacts(spec, [0.3], 0.5)
        rhs = lambda r: tn.lindblad_rhs(r, h0, hint, contacts, reg)
        rho_ss = tn.steady_state(rhs, reg.dim)
        rho0 = tn.gibbs_register(reg, (1.0, 0.3, 0.5))
        rho_t = tn.integrate_master(rho0, rhs, 3e3)
        assert np.abs(rho_t - rho_ss).max() < 1e-8

    def test_trace_and_hermiticity_over_long_horizon(self):
        _, reg, h0, hint, contacts = _not_collector()
        rhs = lambda r: tn.lindblad_rhs(r, h0, hint, contacts, reg)
        rho0 = random_density_matrix(reg.dim, np.random.default_rng(9))
        rho_t = tn.integrate_master(rho0, rhs, 1e4)
        assert abs(np.trace(rho_t).real - 1.0) < 1e-10
        assert np.abs(rho_t - rho_t.conj().T).max() < 1e-10
        validate_density_matrix(rho_t, herm_tol=1e-10, trace_tol=1e-10)

    def test_overflowing_generator_raises_without_warning(self):
        # The probe of y' = y^2 * 1e6 reads 1e6 on the populations, whose
        # exponential overflows at t = 1.
        blow_up = lambda r: r @ r * 1e6
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError, match="not finite"):
                tn.integrate_master(np.eye(2, dtype=complex), blow_up, 1.0)

    @pytest.mark.parametrize("horizon", [math.nan, math.inf, -math.inf, -1.0])
    def test_bad_horizon_rejected_before_any_rhs_call(self, horizon):
        calls = []
        with pytest.raises(ValueError, match="non-negative and finite"):
            tn.integrate_master(np.eye(2, dtype=complex) / 2,
                                lambda r: calls.append(1) or r, horizon)
        assert calls == []

    def test_non_square_state_rejected(self):
        with pytest.raises(StructuralError, match="not square"):
            tn.integrate_master(np.zeros((2, 4), dtype=complex), lambda r: r, 1.0)


class TestSteadyState:
    def test_single_qubit_thermalizes(self):
        reg = QubitRegister((1.3,))
        contact = BathContact(0, 0.6, 0.8)
        h0 = reg.free_hamiltonian()
        zero = np.zeros((2, 2), dtype=complex)
        rho = tn.steady_state(
            lambda r: tn.lindblad_rhs(r, h0, zero, [contact], reg), reg.dim)
        assert np.abs(rho - tn.gibbs_qubit(0.6, 1.3)).max() < 1e-12

    def test_two_uncoupled_qubits_product(self):
        reg = QubitRegister((1.0, 2.0))
        contacts = [BathContact(0, 0.5, 1.0), BathContact(1, 1.5, 0.7)]
        h0 = reg.free_hamiltonian()
        zero = np.zeros((4, 4), dtype=complex)
        rho = tn.steady_state(
            lambda r: tn.lindblad_rhs(r, h0, zero, contacts, reg), reg.dim)
        assert np.abs(rho - tn.gibbs_register(reg, (0.5, 1.5))).max() < 1e-12

    def test_collector_target_population_tracks_virtual_temperature(self):
        spec, reg, h0, hint, contacts = _not_collector()
        rho = tn.steady_state(
            lambda r: tn.lindblad_rhs(r, h0, hint, contacts, reg), reg.dim)
        beta_v = tn.virtual_temperature(spec.h, (1.0, 0.3), spec.eps, spec.eps_z)
        idx = np.arange(reg.dim)
        excited = (idx & 1) == 1
        p_z = float(np.trace(rho[np.ix_(excited, excited)]).real)
        assert abs(p_z - spec.g_z(beta_v)) < 2e-3

    def test_degenerate_null_space_detected(self):
        # Bath on qubit 0 only, no interaction: qubit 1 is free.
        reg = QubitRegister((1.0, 1.0))
        h0 = np.zeros((4, 4), dtype=complex)
        contact = BathContact(0, 0.4, 1.0)
        with pytest.raises(DegenerateSteadyStateError, match="dimension"):
            tn.steady_state(
                lambda r: tn.reset_dissipator(r, contact, reg), reg.dim)


def _dense_steady_state(rhs, dim):
    """Reference: the single SVD of the whole d^2 x d^2 generator that
    `steady_state` ran before it split the generator into invariant blocks.
    Returns the state and the singular values."""
    gen = quantum.superoperator_matrix(rhs, dim)
    _, s, vh = np.linalg.svd(gen)
    tol = s[0] * 1e-11 if s[0] > 0 else 1e-14
    nullity = int(np.sum(s < tol))
    if nullity > 1:
        raise DegenerateSteadyStateError(
            f"generator null space has dimension {nullity}; "
            "steady state is not unique")
    rho = vh[-1].conj().reshape(dim, dim)
    rho = 0.5 * (rho + rho.conj().T)
    tr = float(np.trace(rho).real)
    if abs(tr) < 1e-10:
        raise DegenerateSteadyStateError(
            "null vector is traceless; no normalizable steady state found")
    rho = rho / tr
    residual = float(np.abs(rhs(rho)).max())
    if residual > 1e-10:
        raise RuntimeError(f"steady-state residual {residual:.3e} exceeds 1e-10")
    return rho, s


def _assert_same_as_dense(rhs, dim):
    """Blockwise and dense solves reach the same verdict: the same error type
    and message, or states that agree to 1e-12.  Where the null vector is
    ill-conditioned, neither SVD pins it better than machine epsilon times
    s_max / s_(n-1), so that bound applies when it is larger.  Returns the
    dense state, or None when both raised."""
    try:
        want, s = _dense_steady_state(rhs, dim)
    except (DegenerateSteadyStateError, RuntimeError) as exc:
        with pytest.raises(type(exc)) as got:
            tn.steady_state(rhs, dim)
        assert str(got.value) == str(exc)
        return None
    got = tn.steady_state(rhs, dim)
    bound = max(1e-12, np.finfo(float).eps * s[0] / s[-2])
    assert np.abs(got - want).max() <= bound
    return want


def _matrix_generator(mat):
    """A generator on d x d operators given by its d^2 x d^2 matrix, acting
    on the last two axes."""
    dim = math.isqrt(mat.shape[0])
    return (lambda r: (mat @ r.reshape(r.shape[:-2] + (-1, 1))).reshape(r.shape)), dim


def _two_null_vectors(case):
    """A 9 x 9 generator matrix (d = 3) whose null space has dimension 2."""
    rank_one = np.array([[1.0, -1.0], [2.0, -2.0]])
    mat = np.zeros((9, 9), dtype=complex)
    if case == "shared":
        # One connected 4-block of rank 2, plus an invertible 5-block.
        u = np.array([[1.0, 2.0, -1.0, 0.5], [0.3, -1.0, 1.0, 2.0]]).T
        mat[:4, :4] = u @ np.array([[1.0, 1.0, 2.0, -1.0], [0.5, -2.0, 1.0, 1.0]])
        mat[4:, 4:] = np.diag([1.0, 2.0, 3.0, 4.0, 5.0]) + np.diag([0.5] * 4, 1)
    else:
        # Null vectors in the {0, 4} block and in a second block: the
        # singular {1, 8}, or {1} alone, whose entry is tiny only against
        # the largest singular value of the whole matrix.
        mat[np.ix_([0, 4], [0, 4])] = rank_one
        if case == "separate":
            mat[np.ix_([8, 1], [8, 1])] = rank_one
        else:
            mat[1, 1], mat[8, 8] = 1e-13, 1.0
        mat[np.ix_([2, 3, 5, 6, 7], [2, 3, 5, 6, 7])] = np.eye(5)
    return mat


def _collector_generator(gate, inputs, beta_z=0.5):
    """The register and `lindblad_rhs` of a preset's collector."""
    spec = tn.preset(gate)
    reg = collector_register(spec)
    h0, hint = collector_hamiltonian(spec)
    contacts = collector_contacts(spec, inputs, beta_z)
    return reg, (lambda r: tn.lindblad_rhs(r, h0, hint, contacts, reg))


def _random_machine(rng):
    """A random register with an energy-conserving rank-2 interaction and
    reset baths of random sign, rate and coverage (some leave a qubit free)."""
    while True:
        machine_gaps = tuple(rng.uniform(0.2, 3.0, int(rng.integers(1, 4))))
        bits = tuple(int(b) for b in rng.integers(0, 2, len(machine_gaps)))
        target = abs(tn.virtual_gap(bits, machine_gaps))
        if target > 0.05:
            break
    reg = QubitRegister(machine_gaps + (target,))
    chi = float(rng.choice([0.0, rng.uniform(0.1, 2.0)], p=[0.2, 0.8]))
    hint = tn.build_interaction_hamiltonian(bits, chi, reg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        contacts = [BathContact(k, float(rng.uniform(-1.5, 2.0)),
                                float(rng.uniform(0.05, 2.0)))
                    for k in range(reg.m) if rng.random() < 0.85]
    h0 = reg.free_hamiltonian()
    return reg, (lambda r: tn.lindblad_rhs(r, h0, hint, contacts, reg))


def _probe_by_column(apply_fn, dim):
    """The probe as it was before it took stacks: one call per basis
    operator, each a 2-D d x d array."""
    basis = np.zeros((dim, dim), dtype=complex)
    rows, vals = [], []
    for p in range(dim * dim):
        basis.flat[p] = 1.0
        col = apply_fn(basis).reshape(-1)
        rows.append(np.flatnonzero(col))
        vals.append(col[rows[-1]])
        basis.flat[p] = 0.0
    cols = np.repeat(np.arange(dim * dim), [r.size for r in rows])
    return np.concatenate(rows), cols, np.concatenate(vals).astype(complex, copy=False)


class TestChunkedProbe:
    """`_probe` images stacks of basis operators, PROBE_BLOCK entries at a
    time; the per-column probe is its bit-for-bit oracle."""

    @staticmethod
    def _assert_same_bits(got, want):
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("block", [1, 48, quantum.PROBE_BLOCK])
    def test_random_machines_match_the_per_column_probe(self, monkeypatch, block):
        # block = 1 images one column per call; 48 images three at a time
        # at d = 4, so the last of its six stacks is short.
        monkeypatch.setattr(quantum, "PROBE_BLOCK", block)
        for seed in range(12):
            reg, rhs = _random_machine(np.random.default_rng(seed))
            self._assert_same_bits(quantum._probe(rhs, reg.dim),
                                   _probe_by_column(rhs, reg.dim))

    def test_collectors_match_the_per_column_probe(self):
        for gate in ("NOT", "NOR", "MAJ3"):
            spec = tn.preset(gate)
            reg = collector_register(spec)
            h0, hint = collector_hamiltonian(spec)
            contacts = collector_contacts(spec, (spec.beta_hot,) * spec.n, 0.5)
            rhs = lambda r: tn.lindblad_rhs(r, h0, hint, contacts, reg)
            self._assert_same_bits(quantum._probe(rhs, reg.dim),
                                   _probe_by_column(rhs, reg.dim))

    def test_each_call_gets_one_stack(self):
        reg, rhs = _random_machine(np.random.default_rng(2))
        shapes = []
        quantum._probe(lambda r: shapes.append(r.shape) or rhs(r), reg.dim)
        step = max(1, quantum.PROBE_BLOCK // reg.dim ** 2)
        assert len(shapes) == -(-reg.dim ** 2 // step)
        assert all(s[1:] == (reg.dim, reg.dim) and s[0] <= step for s in shapes)
        assert sum(s[0] for s in shapes) == reg.dim ** 2


class TestBlockwiseSteadyState:
    """`steady_state` solves block by block; the dense SVD is its oracle."""

    @pytest.mark.parametrize("gate", ["NOT", "NOR", "MAJ3"])
    def test_collectors_match_dense_svd(self, gate):
        spec = tn.preset(gate)
        reg = collector_register(spec)
        h0, hint = collector_hamiltonian(spec)
        rails = (spec.beta_hot, spec.beta_cold)
        for inputs in itertools.product(rails, repeat=spec.n):
            for beta_z in (0.2, 0.5, 2.0):
                contacts = collector_contacts(spec, inputs, beta_z)
                rhs = lambda r: tn.lindblad_rhs(r, h0, hint, contacts, reg)
                rho = _assert_same_as_dense(rhs, reg.dim)
                assert np.abs(rhs(rho)).max() <= 1e-10

    def test_never_forms_the_dense_matrix(self, monkeypatch):
        # The MAJ3 collector (d = 32): its dense d^2 x d^2 matrix alone is 16 MiB.
        spec = tn.preset("MAJ3")
        reg = collector_register(spec)
        h0, hint = collector_hamiltonian(spec)
        contacts = collector_contacts(spec, (0.0, 1.0, 1.0), 0.5)
        rhs = lambda r: tn.lindblad_rhs(r, h0, hint, contacts, reg)

        def dense(*_):
            raise AssertionError("steady_state built the dense generator")

        monkeypatch.setattr(quantum, "superoperator_matrix", dense)
        tracemalloc.start()
        try:
            rho = tn.steady_state(rhs, reg.dim)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert np.abs(rhs(rho)).max() <= 1e-10

    def test_random_machines_match_dense_svd(self):
        verdicts = []
        for seed in range(24):
            reg, rhs = _random_machine(np.random.default_rng(seed))
            verdicts.append(_assert_same_as_dense(rhs, reg.dim) is None)
        # Both verdicts occur, so both branches are compared.
        assert any(verdicts) and not all(verdicts)

    def test_collector_splits_into_small_blocks(self):
        reg, rhs = _collector_generator("NOR", (0.0, 1.0))
        blocks = [b for b, _ in quantum._blocks(rhs, reg.dim)]
        assert sorted(np.concatenate(blocks)) == list(range(reg.dim ** 2))
        assert len(blocks) == 65 and max(map(len, blocks)) == reg.dim + 2

    @pytest.mark.parametrize("case", ["separate", "shared", "tiny"])
    def test_two_null_vectors_raise_with_dense_nullity(self, case):
        rhs, dim = _matrix_generator(_two_null_vectors(case))
        n_blocks = {"separate": 7, "shared": 2, "tiny": 8}[case]
        assert len(quantum._blocks(rhs, dim)) == n_blocks
        assert _assert_same_as_dense(rhs, dim) is None
        with pytest.raises(DegenerateSteadyStateError, match="dimension 2;"):
            tn.steady_state(rhs, dim)

    @pytest.mark.parametrize("case", ["NOR", "MAJ3", "separate", "shared", "tiny",
                                      "diagonal"])
    def test_blocks_are_the_dense_matrix_blocks(self, case):
        # Each block is its slice of the probed matrix, bit for bit; the
        # blocks cover every entry and come ascending, by their first index.
        if case in ("NOR", "MAJ3"):
            inputs = {"NOR": (0.0, 1.0), "MAJ3": (0.0, 1.0, 1.0)}[case]
            reg, rhs = _collector_generator(case, inputs)
            dim = reg.dim
        elif case == "diagonal":
            rhs, dim = _matrix_generator(np.diag([-1.0, -2.0, -3.0, 0.0]) + 0j)
        else:
            rhs, dim = _matrix_generator(_two_null_vectors(case))
        gen = quantum.superoperator_matrix(rhs, dim)
        blocks = quantum._blocks(rhs, dim)
        mask = np.zeros(gen.shape, dtype=bool)
        for b, block in blocks:
            assert np.all(np.diff(b) > 0)
            assert block.dtype == gen.dtype and np.array_equal(block, gen[np.ix_(b, b)])
            mask[np.ix_(b, b)] = True
        firsts = [b[0] for b, _ in blocks]
        assert firsts == sorted(firsts) and firsts[0] == 0
        assert sum(len(b) for b, _ in blocks) == dim * dim
        assert mask.sum() == sum(len(b) ** 2 for b, _ in blocks)
        assert not gen[~mask].any()

    def test_null_vector_outside_the_first_block(self):
        # Four 1 x 1 blocks; only the last, the (1, 1) population, is singular.
        rhs, dim = _matrix_generator(np.diag([-1.0, -2.0, -3.0, 0.0]) + 0j)
        rho = _assert_same_as_dense(rhs, dim)
        assert np.array_equal(rho, np.diag([0.0, 1.0]))

    def test_no_null_vector_ends_in_residual_error(self):
        # Distinct singular values: both solvers pick the (1, 1) population.
        rhs, dim = _matrix_generator(np.diag([-1.0, -2.0, -3.0, -0.5]) + 0j)
        assert _assert_same_as_dense(rhs, dim) is None
        with pytest.raises(SolverError, match="residual 5.000e-01"):
            tn.steady_state(rhs, dim)


def _dense_propagate(gen, rho0, t):
    """Reference: exp(L t) rho0 with the whole d^2 x d^2 generator matrix, then
    `integrate_master`'s re-Hermitization and trace renormalization."""
    dim = len(rho0)
    rho = (expm(gen * t) @ rho0.reshape(-1)).reshape(dim, dim)
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


class TestExactPropagation:
    """`integrate_master` exponentiates block by block; the whole-matrix
    exponential is its oracle."""

    def test_random_machines_match_dense_expm(self):
        for seed in range(24):
            reg, rhs = _random_machine(np.random.default_rng(seed))
            rho0 = random_density_matrix(reg.dim, np.random.default_rng(100 + seed))
            gen = quantum.superoperator_matrix(rhs, reg.dim)
            for t in (0.1, 10.0, 1e3):
                want = _dense_propagate(gen, rho0, t)
                assert np.abs(tn.integrate_master(rho0, rhs, t) - want).max() <= 1e-11

    @pytest.mark.parametrize("gate", ["NOT", "NOR"])
    def test_collectors_match_dense_expm(self, gate):
        # The bound is the oracle's own rounding: on NOR (1, 1) at t = 1e4 the
        # whole-matrix exponential is 1.4e-11 from a 40-digit evaluation and
        # the block exponentials 2e-13, and the two differ by 1.1e-11.
        spec = tn.preset(gate)
        reg = collector_register(spec)
        h0, hint = collector_hamiltonian(spec)
        rho0 = random_density_matrix(reg.dim, np.random.default_rng(8))
        for inputs in itertools.product((spec.beta_hot, spec.beta_cold), repeat=spec.n):
            contacts = collector_contacts(spec, inputs, 0.5)
            rhs = lambda r: tn.lindblad_rhs(r, h0, hint, contacts, reg)
            gen = quantum.superoperator_matrix(rhs, reg.dim)
            for t in (1.0, 1e2, 1e4, 1e6):
                want = _dense_propagate(gen, rho0, t)
                assert np.abs(tn.integrate_master(rho0, rhs, t) - want).max() <= 2e-11


class TestHeatCurrent:
    def test_zero_at_own_temperature(self):
        reg = QubitRegister((1.0,))
        contact = BathContact(0, 0.9, 1.0)
        rho = tn.gibbs_qubit(0.9, 1.0)
        assert abs(tn.heat_current(rho, reg.free_hamiltonian(), contact, reg)) < 1e-14

    def test_fully_excited_qubit(self):
        # gamma eps (g - p) with g = 1/2, p = 1: -0.5.
        reg = QubitRegister((1.0,))
        rho = np.diag([0.0, 1.0]).astype(complex)
        j = tn.heat_current(rho, reg.free_hamiltonian(),
                            BathContact(0, 0.0, 1.0), reg)
        assert abs(j - (-0.5)) < 1e-14

    def test_flux_conservation_in_collector_steady_state(self):
        spec, reg, h0, hint, contacts = _not_collector()
        h = h0 + hint
        rhs = lambda r: tn.lindblad_rhs(r, h0, hint, contacts, reg)
        rho = tn.steady_state(rhs, reg.dim)
        j = [tn.heat_current(rho, h, c, reg) for c in contacts]
        eps = reg.gaps
        nu = j[0] / eps[0]
        assert abs(-j[1] / eps[1] - nu) < 1e-8 * abs(nu)
        assert abs(-j[2] / eps[2] - nu) < 1e-8 * abs(nu)

    def test_first_law_in_steady_state(self):
        spec, reg, h0, hint, contacts = _not_collector()
        h = h0 + hint
        rho = tn.steady_state(
            lambda r: tn.lindblad_rhs(r, h0, hint, contacts, reg), reg.dim)
        total = sum(tn.heat_current(rho, h, c, reg) for c in contacts)
        assert abs(total) < 1e-10

    def test_steady_state_obeys_the_laws_on_random_machines(self):
        # Tight coupling (Brunner et al., PRE 85, 051117 (2012)): one flux nu
        # carries every current, J_k = s_k eps_k nu, where s_k = +1 if the
        # coupled level a has qubit k excited and -1 if not; the reservoir is
        # one contact among the others.  So sum_k J_k = 0 and the entropy rate
        # -sum_k beta_k J_k is |nu| eps_z |beta_v - beta_z| >= 0.  Measured on
        # these 24 machines (d = 8 to 32): first-law residual 1.6e-10 max|J|,
        # nu spread 2.4e-10 and the entropy identity 1.2e-8, both relative;
        # the bounds leave margins of 60x, 40x and 80x.
        rng = np.random.default_rng(0)
        for _ in range(24):
            spec = random_neuron(rng, n_max=3)
            inputs = random_inputs(rng, spec)
            beta_z = float(rng.uniform(0.0, 1.0))
            reg = collector_register(spec)
            h0, hint = collector_hamiltonian(spec)
            contacts = collector_contacts(spec, inputs, beta_z)
            rho = tn.steady_state(
                lambda r: tn.lindblad_rhs(r, h0, hint, contacts, reg), reg.dim)
            j = np.array([tn.heat_current(rho, h0 + hint, c, reg) for c in contacts])
            a, _ = coupled_levels(spec.h, reg)
            signs = np.array([1.0 if a >> (reg.m - 1 - c.qubit_index) & 1 else -1.0
                              for c in contacts])
            nus = j / (signs * np.array([reg.gaps[c.qubit_index] for c in contacts]))
            assert abs(j.sum()) <= 1e-8 * np.abs(j).max()
            nu = nus[-1]   # the reservoir's
            assert np.abs(nus - nu).max() <= 1e-8 * abs(nu)
            sigma_dot = -float(np.array([c.beta for c in contacts]) @ j)
            beta_v = tn.steady_output(spec, inputs).beta_v
            closed = abs(nu) * spec.eps_z * abs(beta_v - beta_z)
            assert sigma_dot >= 0.0
            assert abs(sigma_dot - closed) <= 1e-6 * closed


class TestEntropy:
    def test_pure_state(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[2, 2] = 1.0
        assert tn.von_neumann_entropy(rho) == 0.0

    def test_maximally_mixed_qubit(self):
        assert abs(tn.von_neumann_entropy(np.eye(2) / 2) - math.log(2)) < 1e-12

    def test_thermal_qubit_value(self):
        # Frozen from 50-digit -sum(p log p) at p = fermi_population(1).
        rho = tn.gibbs_qubit(1.0, 1.0)
        assert abs(tn.von_neumann_entropy(rho) - 0.5822031088882179548) < 1e-12


class TestEntropyProductionRate:
    def test_global_equilibrium_is_reversible(self):
        spec = tn.build_neuron((2.0, 1.0), (0, 1), 0.7, 1.0, mu=1e-4)
        reg = collector_register(spec)
        h0, hint = collector_hamiltonian(spec)
        contacts = collector_contacts(spec, [0.7], 0.7)  # all baths at beta0
        rhs = lambda r: tn.lindblad_rhs(r, h0, hint, contacts, reg)
        rho = tn.steady_state(rhs, reg.dim)
        rate = tn.entropy_production_rate(rho, contacts, h0 + hint, 0.0, reg)
        assert abs(rate) < 1e-10

    def test_second_law_on_random_states(self):
        # dS/dt computed from the generator: -Tr[rhs(rho) log rho].
        rng = np.random.default_rng(21)
        spec, reg, h0, hint, _ = _not_collector()
        h = h0 + hint
        for _ in range(25):
            betas = rng.uniform(0.0, 2.0, 3)
            contacts = [BathContact(i, float(b), 1.0) for i, b in enumerate(betas)]
            rhs = lambda r: tn.lindblad_rhs(r, h0, hint, contacts, reg)
            rho = random_density_matrix(reg.dim, rng)
            drho = rhs(rho)
            w, u = np.linalg.eigh(rho)
            ds_dt = float(-(np.einsum("ij,jk,ki->i", u.conj().T, drho, u).real
                            * np.log(np.clip(w, 1e-18, None))).sum())
            rate = tn.entropy_production_rate(rho, contacts, h, ds_dt, reg)
            assert rate >= -1e-10

    def test_unequal_baths_produce_entropy_at_steady_state(self):
        spec, reg, h0, hint, contacts = _not_collector()
        rho = tn.steady_state(
            lambda r: tn.lindblad_rhs(r, h0, hint, contacts, reg), reg.dim)
        rate = tn.entropy_production_rate(rho, contacts, h0 + hint, 0.0, reg)
        assert rate > 0.0
