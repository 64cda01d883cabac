"""The reduced collector model against the dense superoperator it replaces.

`evolve_full` integrates the collector populations plus the one coherence
rho_ab of the coupled pair.  The dense generator below is the reference:
it must not leak out of that subspace, it must restrict to the reduced
generator, and the dense co-integration must give the same trajectory.
"""

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, solve_ivp

import thermoneuron as tn
from thermoneuron import dynamics
from thermoneuron.quantum import (BathContact, QubitRegister, gibbs_register,
                                  heat_current, lindblad_rhs, reset_dissipator,
                                  superoperator_matrix)
from thermoneuron.virtual import coupled_levels
from conftest import thermalize_qubit

TAU0 = np.diag([1.0, 0.0]).astype(complex)
DTAU = np.diag([-1.0, 1.0]).astype(complex)

MACHINES = {
    "NOT": (tn.preset("NOT"), (0.0,)),
    "NOR": (tn.preset("NOR"), (1.0, 0.0)),
    "MAJ3": (tn.preset("MAJ3"), (0.0, 1.0, 1.0)),
    "decoupled": (tn.NeuronSpec(eps=(2.0, 1.0), h=(0, 1), beta0=1.0, eps_z=1.0,
                                beta_r=0.4, mu_prime=0.0, mu=0.0), (0.3,)),
}


def subspace(spec):
    """Row-major vec indices of the populations and of rho_ab, rho_ba."""
    reg = dynamics.collector_register(spec)
    d = reg.dim
    a, b = coupled_levels(spec.h, reg)
    return d, a, b, np.arange(d) * (d + 1), a * d + b, b * d + a


def dense_collector(spec, inputs, beta_z):
    reg = dynamics.collector_register(spec)
    h0, hint = dynamics.collector_hamiltonian(spec)
    contacts = dynamics.collector_contacts(spec, inputs, beta_z)
    return superoperator_matrix(
        lambda r: lindblad_rhs(r, h0, hint, contacts, reg), reg.dim)


def restrict(gen, spec):
    """Dense generator in the reduced coordinates (p, Re c, Im c)."""
    d, _, _, pops, ab, ba = subspace(spec)
    inside = np.concatenate((pops, [ab, ba]))
    # vec entries (pops, ab, ba) = (p, x + iy, x - iy) for coordinates (p, x, y).
    embed = np.zeros((d + 2, d + 2), dtype=complex)
    embed[:d, :d] = np.eye(d)
    embed[d:, d] = 1.0
    embed[d:, d + 1] = (1j, -1j)
    out = gen[np.ix_(inside, inside)] @ embed
    assert np.abs(out[:d].imag).max() <= 1e-15
    assert np.abs(out[d + 1] - out[d].conj()).max() <= 1e-15
    return np.vstack((out[:d].real, out[d].real, out[d].imag))


@pytest.mark.parametrize("name", sorted(MACHINES))
def test_dense_generator_does_not_leak_out_of_the_subspace(name):
    spec, inputs = MACHINES[name]
    d, _, _, pops, ab, ba = subspace(spec)
    gen = dense_collector(spec, inputs, 0.5)
    inside = np.concatenate((pops, [ab, ba]))
    outside = np.setdiff1d(np.arange(d * d), inside)
    assert np.count_nonzero(gen[np.ix_(outside, inside)]) == 0


@pytest.mark.parametrize("name", sorted(MACHINES))
@pytest.mark.parametrize("beta_z", [0.0, 0.37, 1.0])
def test_reduced_generator_is_the_restricted_dense_one(name, beta_z):
    spec, inputs = MACHINES[name]
    d = dynamics.collector_register(spec).dim
    model = dynamics._reduced_model(spec, inputs)
    gen = model.gen0 + spec.g_z(beta_z) * model.gen1
    want = restrict(dense_collector(spec, inputs, beta_z), spec)
    assert np.abs(gen[:d + 2, :d + 2] - want).max() <= 1e-14
    assert not gen[:d + 2, d + 2:].any() and not gen[d + 2:, :d + 2].any()

    reg_m = QubitRegister((spec.eps_z,))
    contacts = dynamics.modulator_contacts(spec, beta_z)
    dense_m = superoperator_matrix(
        lambda r: sum(reset_dissipator(r, c, reg_m) for c in contacts), reg_m.dim)
    want_m = dense_m[np.ix_([0, 3], [0, 3])].real
    assert np.abs(gen[d + 2:, d + 2:] - want_m).max() <= 1e-14


@pytest.mark.parametrize("name", sorted(MACHINES))
def test_heat_rows_are_the_dense_currents(name):
    # Arbitrary Hermitian states in the subspace, so that Re c is not zero.
    spec, inputs = MACHINES[name]
    d, a, b, *_ = subspace(spec)
    model = dynamics._reduced_model(spec, inputs)
    x = np.random.default_rng(11).uniform(-1.0, 1.0, d + 4)
    rho_c = np.diag(x[:d]).astype(complex)
    rho_c[a, b], rho_c[b, a] = complex(x[d], x[d + 1]), complex(x[d], -x[d + 1])
    rho_m = np.diag(x[d + 2:]).astype(complex)
    reg_c, reg_m = dynamics.collector_register(spec), QubitRegister((spec.eps_z,))
    h0, hint = dynamics.collector_hamiltonian(spec)
    h_c, h_m = h0 + hint, reg_m.free_hamiltonian()
    beta_z = 0.37
    g = spec.g_z(beta_z)
    contacts_c = dynamics.collector_contacts(spec, inputs, beta_z)
    contacts_m = dynamics.modulator_contacts(spec, beta_z)
    fixed = [(c, reg_c, h_c, rho_c) for c in contacts_c[:spec.n + 1]]
    fixed.append((contacts_m[0], reg_m, h_m, rho_m))
    want_flux = sum(c.beta * heat_current(rho, h, c, reg) for c, reg, h, rho in fixed)
    assert model.flux @ x == pytest.approx(want_flux, rel=1e-13, abs=1e-15)
    reservoir = ((contacts_c[spec.n + 1:], reg_c, h_c, rho_c),
                 (contacts_m[1:], reg_m, h_m, rho_m))
    for row, (contacts, reg, h, rho) in enumerate(reservoir):
        want = sum(heat_current(rho, h, c, reg) for c in contacts)
        got = (model.heat0[row] + g * model.heat1[row]) @ x
        assert got == pytest.approx(want, rel=1e-13, abs=1e-15)


def dense_evolve_full(spec, inputs, beta_z0, tau, rtol, atol):
    """The dense co-integration: both density matrices as 2 d^2 real numbers,
    BDF with a finite-difference Jacobian, one sample at a time."""
    reg_c = dynamics.collector_register(spec)
    reg_m = QubitRegister((spec.eps_z,))
    h0, hint = dynamics.collector_hamiltonian(spec)
    h_c, h_m = h0 + hint, reg_m.free_hamiltonian()
    betas = (spec.beta0,) + tuple(inputs)
    fixed_c = [BathContact(i, b, spec.gamma) for i, b in enumerate(betas)]
    bath_m = BathContact(0, spec.beta_r, spec.gamma)

    def parts(reg, h, fixed, rate):
        k = reg.m - 1
        l = superoperator_matrix(
            lambda r: -1j * (h @ r - r @ h) + sum(reset_dissipator(r, c, reg)
                                                  for c in fixed), reg.dim)
        a = superoperator_matrix(
            lambda r: rate * (thermalize_qubit(r, k, reg.m, TAU0) - r), reg.dim)
        b = superoperator_matrix(
            lambda r: rate * thermalize_qubit(r, k, reg.m, DTAU), reg.dim)
        return l + a, b, h.T.reshape(-1) @ a, h.T.reshape(-1) @ b

    l_c, b_c, ua_c, ub_c = parts(reg_c, h_c, fixed_c, spec.mu)
    l_m, b_m, ua_m, ub_m = parts(reg_m, h_m, [bath_m], spec.mu_prime)
    nc, nm = reg_c.dim ** 2, reg_m.dim ** 2

    def unpack(y):
        return (y[:nc] + 1j * y[nc:2 * nc],
                y[2 * nc:2 * nc + nm] + 1j * y[2 * nc + nm:-1], y[-1])

    def rhs(_t, y):
        rc, rm, bz = unpack(y)
        g = spec.g_z(bz)
        drc, drm = (l_c + g * b_c) @ rc, (l_m + g * b_m) @ rm
        heat = (ua_c @ rc + ua_m @ rm + g * (ub_c @ rc + ub_m @ rm)).real
        return np.concatenate((drc.real, drc.imag, drm.real, drm.imag,
                               [heat / spec.capacity]))

    def entropy_rate(rho, drho):
        w, u = np.linalg.eigh(rho)
        diag = np.einsum("ij,jk,ki->i", u.conj().T, drho, u).real
        return float(-(diag * np.log(np.clip(w, 1e-18, None))).sum())

    rho_c = gibbs_register(reg_c, betas + (beta_z0,)).reshape(-1)
    rho_m = gibbs_register(reg_m, (spec.beta_r,)).reshape(-1)
    y0 = np.concatenate((rho_c.real, rho_c.imag, rho_m.real, rho_m.imag, [beta_z0]))
    times = dynamics._sample_times(tau)
    ys = solve_ivp(rhs, (0.0, tau), y0, method="BDF", t_eval=times,
                   rtol=rtol, atol=atol).y
    j_c, j_m, sdot = (np.zeros(len(times)) for _ in range(3))
    for i in range(len(times)):
        rc, rm, bz = unpack(ys[:, i])
        g = spec.g_z(bz)
        rho_c = rc.reshape(reg_c.dim, reg_c.dim)
        rho_m = rm.reshape(reg_m.dim, reg_m.dim)
        rho_c, rho_m = 0.5 * (rho_c + rho_c.conj().T), 0.5 * (rho_m + rho_m.conj().T)
        j_c[i] = ((ua_c + g * ub_c) @ rho_c.reshape(-1)).real
        j_m[i] = ((ua_m + g * ub_m) @ rho_m.reshape(-1)).real
        drc = ((l_c + g * b_c) @ rho_c.reshape(-1)).reshape(rho_c.shape)
        drm = ((l_m + g * b_m) @ rho_m.reshape(-1)).reshape(rho_m.shape)
        flux = sum(c.beta * np.trace(h_c @ reset_dissipator(rho_c, c, reg_c)).real
                   for c in fixed_c)
        flux += bath_m.beta * np.trace(h_m @ reset_dissipator(rho_m, bath_m, reg_m)).real
        sdot[i] = (entropy_rate(rho_c, drc) + entropy_rate(rho_m, drm)
                   - flux - bz * (j_c[i] + j_m[i]))
    sigma = cumulative_trapezoid(sdot, times, initial=0.0)
    return dict(beta_z=ys[-1], j_collector=j_c, j_modulator=j_m, sigma_dot=sdot,
                sigma=sigma, final_rho_collector=rho_c, final_rho_modulator=rho_m)


@pytest.mark.parametrize("name", ["NOT", "NOR"])
def test_reduced_and_dense_co_integration_agree(name, monkeypatch):
    # Both runs at tolerances tight enough that the integrators' global error
    # (up to about 2e-7 in beta_z at the default FULL_RTOL = 1e-8) does not
    # hide a model error, on 20 samples per decade.
    spec, inputs = MACHINES[name]
    monkeypatch.setattr(dynamics, "PER_DECADE", 20)
    monkeypatch.setattr(dynamics, "FULL_RTOL", 1e-12)
    monkeypatch.setattr(dynamics, "FULL_ATOL", 1e-15)
    traj = tn.evolve_full(spec, inputs, 0.5, 1e3)
    dense = dense_evolve_full(spec, inputs, 0.5, 1e3, rtol=1e-12, atol=1e-15)
    for field, want in dense.items():
        got = getattr(traj, field)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-10, field
