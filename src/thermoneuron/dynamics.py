"""Two-timescale evolution of a thermodynamic neuron.

The machine has a fast internal scale (collector/modulator thermalization
at rate ~gamma) and a slow scale set by the weak couplings mu, mu' to the
finite output reservoir.  `evolve_quasi_static` integrates only the slow
calorimetric equation

    d(beta_z)/dt = (j_C + j_M) / C,
    j_C = mu  eps_z [g_z(beta_z) - g_z(beta_v)],
    j_M = mu' eps_z [g_z(beta_z) - g_z(beta_r)],

with the fast parts pinned at their steady values.  `evolve_full`
co-integrates the collector and modulator states together with beta_z,
evaluating the reservoir dissipators at the instantaneous temperature; the
two methods agree when gamma >> mu, mu'.

The full model is exact but small.  The collector interaction couples two
basis levels |a> and |b> that differ in every qubit, so every local reset
damps the coherence rho_ab and moves population only between levels one
bit apart.  The d collector populations plus rho_ab therefore form an
invariant subspace of the collector generator, the modulator stays
diagonal, and `evolve_full` integrates d + 5 real coordinates instead of
the dense d x d density matrices.

Entropy production is accumulated along the way: in quasi-static mode the
machine's entropy is constant and the rate reduces to

    sigma_dot = mu  eps_z [g_z(beta_v) - g_z(beta_z)] (beta_z - beta_v)
              + mu' eps_z [g_z(beta_r) - g_z(beta_z)] (beta_z - beta_r),

which is non-negative term by term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, StructuralError
from .neuron import NeuronSpec
from .quantum import BathContact, QubitRegister, gibbs_qubit, gibbs_register
from .virtual import (build_interaction_hamiltonian, coupled_levels,
                      virtual_temperature)

__all__ = [
    "Trajectory",
    "evolve_quasi_static",
    "evolve_full",
    "accumulated_dissipation",
    "collector_register",
    "collector_hamiltonian",
    "collector_contacts",
    "modulator_register",
    "modulator_contacts",
]

CSV_HEADER = ("t", "beta_z", "j_C", "j_M", "sigma_dot", "sigma")


@dataclass
class Trajectory:
    """Sampled slow evolution: reservoir temperature, currents, dissipation.

    Full co-integration additionally records the final collector and
    modulator density matrices (None for quasi-static runs).
    """

    t: np.ndarray
    beta_z: np.ndarray
    j_collector: np.ndarray
    j_modulator: np.ndarray
    sigma_dot: np.ndarray
    sigma: np.ndarray
    final_rho_collector: np.ndarray | None = None
    final_rho_modulator: np.ndarray | None = None

    def __post_init__(self):
        n = len(self.t)
        for name in ("beta_z", "j_collector", "j_modulator", "sigma_dot", "sigma"):
            if len(getattr(self, name)) != n:
                raise StructuralError(f"trajectory column {name} has wrong length")
        if n > 1 and not np.all(np.diff(self.t) > 0):
            raise StructuralError("trajectory times must be strictly increasing")

    @property
    def endpoint(self) -> float:
        return float(self.beta_z[-1])


def _sample_times(tau: float, per_decade: int) -> np.ndarray:
    if tau <= 0.0:
        return np.array([0.0])
    lo = min(1e-2, tau / 10.0)
    decades = math.log10(tau / lo)
    npts = max(2, int(math.ceil(decades * per_decade)))
    ts = np.geomspace(lo, tau, npts)
    ts[-1] = tau
    return np.concatenate(([0.0], ts))


def evolve_quasi_static(spec: NeuronSpec, inputs: Sequence[float], beta_z0: float,
                        tau: float, *, per_decade: int = 200,
                        rtol: float = 1e-9) -> Trajectory:
    """Integrate the calorimetric equation with the fast parts at steady state."""
    from scipy.integrate import cumulative_trapezoid, solve_ivp

    if not tau >= 0.0:
        raise ConfigError("tau must be non-negative")
    if not (spec.capacity > 0.0):
        raise StructuralError("reservoir capacity must be positive")
    inputs = tuple(float(b) for b in inputs)
    if len(inputs) != spec.n:
        raise StructuralError(f"expected {spec.n} inputs, got {len(inputs)}")
    betas = (spec.beta0,) + inputs
    beta_v = virtual_temperature(spec.h, betas, spec.eps, spec.eps_z)
    g_v = spec.g_z(beta_v)
    g_r = spec.g_z(spec.beta_r)

    def rhs(_t, y):
        g_bz = spec.g_z(y[0])
        j = (spec.mu * (g_bz - g_v) + spec.mu_prime * (g_bz - g_r)) * spec.eps_z
        return [j / spec.capacity]

    def jac(_t, y):
        x = y[0] * spec.eps_z
        g = spec.g_z(y[0])
        dg = -spec.eps_z * g * (1.0 - g) if math.isfinite(x) else 0.0
        return [[(spec.mu + spec.mu_prime) * spec.eps_z * dg / spec.capacity]]

    times = _sample_times(tau, per_decade)
    if tau <= 0.0:
        bz = np.array([float(beta_z0)])
    else:
        sol = solve_ivp(rhs, (0.0, tau), [float(beta_z0)], method="LSODA",
                        t_eval=times, rtol=rtol, atol=1e-13, jac=jac)
        if not sol.success:
            raise RuntimeError(f"quasi-static integration failed: {sol.message}")
        bz = sol.y[0]
    g_bz = spec.g_z(bz)
    j_c = spec.mu * spec.eps_z * (g_bz - g_v)
    j_m = spec.mu_prime * spec.eps_z * (g_bz - g_r)
    sdot = (spec.mu * spec.eps_z * (g_v - g_bz) * (bz - beta_v)
            + spec.mu_prime * spec.eps_z * (g_r - g_bz) * (bz - spec.beta_r))
    sigma = (cumulative_trapezoid(sdot, times, initial=0.0)
             if len(times) > 1 else np.zeros(1))
    return Trajectory(t=times, beta_z=bz, j_collector=j_c, j_modulator=j_m,
                      sigma_dot=sdot, sigma=sigma)


def collector_register(spec: NeuronSpec) -> QubitRegister:
    """Machine-part qubits followed by the target qubit C_z."""
    return QubitRegister(spec.eps + (spec.eps_z,))


def collector_hamiltonian(spec: NeuronSpec):
    """(H0, Hint) for the collector register."""
    reg = collector_register(spec)
    h0 = reg.free_hamiltonian()
    hint = build_interaction_hamiltonian(spec.h, spec.chi, reg)
    return h0, hint


def collector_contacts(spec: NeuronSpec, inputs: Sequence[float],
                       beta_z: float) -> list[BathContact]:
    """Bath contacts of the collector: reference, inputs, and the reservoir."""
    betas = (spec.beta0,) + tuple(inputs)
    contacts = [BathContact(i, b, spec.gamma) for i, b in enumerate(betas)]
    if spec.mu > 0:
        contacts.append(BathContact(len(betas), beta_z, spec.mu))
    return contacts


def modulator_register(spec: NeuronSpec) -> QubitRegister:
    return QubitRegister((spec.eps_z,))


def modulator_contacts(spec: NeuronSpec, beta_z: float) -> list[BathContact]:
    contacts = [BathContact(0, spec.beta_r, spec.gamma)]
    if spec.mu_prime > 0:
        contacts.append(BathContact(0, beta_z, spec.mu_prime))
    return contacts


def _level_map(register: QubitRegister, qubit: int,
               tau: Sequence[float]) -> np.ndarray:
    """Tr_k[rho] (x) diag(tau) restricted to populations, as a d x d matrix.

    Level i receives tau[bit_k(i)] * (p_i + p_j), with j = i xor bit_k.
    """
    shift = register.m - 1 - qubit
    idx = np.arange(register.dim)
    weight = np.asarray(tau, dtype=float)[(idx >> shift) & 1]
    out = np.zeros((register.dim, register.dim))
    out[idx, idx] = weight
    out[idx, idx ^ (1 << shift)] = weight
    return out


class _ReducedModel(NamedTuple):
    """Collector and modulator generator on the invariant subspace.

    The state is x = (p_0 .. p_{d-1}, Re c, Im c, q_0, q_1): the collector
    populations p, its coherence c = rho_ab between the coupled levels
    (a, b), and the modulator populations q.  With g = g_z(beta_z):

        dx/dt                = (gen0 + g gen1) x,
        reservoir heat rows  = (heat0 + g heat1) x   (collector, modulator),
        sum_k beta_k j_k     = flux x                 (fixed baths only).
    """

    gen0: np.ndarray
    gen1: np.ndarray
    heat0: np.ndarray
    heat1: np.ndarray
    flux: np.ndarray
    pair: tuple[int, int]


def _reduced_model(spec: NeuronSpec, inputs: Sequence[float]) -> _ReducedModel:
    """Assemble the reduced generator from the register structure.

    Every reset contact moves population between i and i xor bit_k and, as
    a and b differ in every qubit, damps c at its own rate.  The interaction
    chi (|a><b| + |b><a|) exchanges p_a and p_b through Im c.  Heat terms
    are Tr[(H0 + Hint) L_k rho] = E . (L_k p) + 2 chi Re (L_k c).
    """
    reg_c = collector_register(spec)
    d = reg_c.dim
    a, b = coupled_levels(spec.h, spec.chi, reg_c)
    chi = spec.chi
    re, im, size = d, d + 1, d + 4
    gen0, gen1 = np.zeros((size, size)), np.zeros((size, size))
    heat0, heat1 = np.zeros((2, size)), np.zeros((2, size))
    flux = np.zeros(size)

    betas = (spec.beta0,) + tuple(inputs)
    fixed_c = [BathContact(i, beta, spec.gamma) for i, beta in enumerate(betas)]
    bath_m = BathContact(0, spec.beta_r, spec.gamma)
    registers = ((reg_c, fixed_c, spec.mu, slice(0, d)),
                 (modulator_register(spec), [bath_m], spec.mu_prime, slice(d + 2, size)))
    for row, (reg, fixed, rate, blk) in enumerate(registers):
        energies, eye = reg.level_energies(), np.eye(reg.dim)
        for c in fixed:
            tau = gibbs_qubit(c.beta, reg.gaps[c.qubit_index]).diagonal().real
            rates = c.rate * (_level_map(reg, c.qubit_index, tau) - eye)
            gen0[blk, blk] += rates
            flux[blk] += c.beta * (energies @ rates)
        # The reservoir resets the last qubit toward
        # diag(1 - g, g) = diag(1, 0) + g diag(-1, 1).
        res0 = rate * (_level_map(reg, reg.m - 1, (1.0, 0.0)) - eye)
        res1 = rate * _level_map(reg, reg.m - 1, (-1.0, 1.0))
        gen0[blk, blk] += res0
        gen1[blk, blk] += res1
        heat0[row, blk], heat1[row, blk] = energies @ res0, energies @ res1

    # The pair: every contact damps c; the interaction exchanges p_a and p_b
    # through Im c.  E_a - E_b is zero up to the resonance tolerance.
    decay = sum(c.rate for c in fixed_c) + spec.mu
    detuning = reg_c.level_energies()[a] - reg_c.level_energies()[b]
    gen0[a, im], gen0[b, im] = -2.0 * chi, 2.0 * chi
    gen0[re, re], gen0[re, im] = -decay, detuning
    gen0[im, re], gen0[im, im] = -detuning, -decay
    gen0[im, a], gen0[im, b] = chi, -chi
    flux[re] = -2.0 * chi * sum(c.beta * c.rate for c in fixed_c)
    heat0[0, re] = -2.0 * chi * spec.mu
    return _ReducedModel(gen0, gen1, heat0, heat1, flux, (a, b))


def _entropy_rate(w: np.ndarray, dw: np.ndarray) -> np.ndarray:
    """dS/dt = -sum_k dw_k log w_k over eigenvalues w floored at 1e-18, per row."""
    return -(dw * np.log(np.clip(w, 1e-18, None))).sum(axis=-1)


def _pair_block(x: np.ndarray, a: int, b: int) -> np.ndarray:
    """Per-row 2 x 2 Hermitian block [[p_a, c], [c*, p_b]] of reduced states."""
    d = x.shape[-1] - 4
    block = np.empty(x.shape[:-1] + (2, 2), dtype=complex)
    block[..., 0, 0] = x[..., a]
    block[..., 1, 1] = x[..., b]
    block[..., 0, 1] = x[..., d] + 1j * x[..., d + 1]
    block[..., 1, 0] = block[..., 0, 1].conj()
    return block


def evolve_full(spec: NeuronSpec, inputs: Sequence[float], beta_z0: float,
                tau: float, *, per_decade: int = 200, rtol: float = 1e-8,
                atol: float = 1e-12) -> Trajectory:
    """Co-integrate collector state, modulator state, and the reservoir temperature.

    The collector and modulator evolve as separate registers (they share no
    Hamiltonian coupling, only the common reservoir), with the reservoir
    dissipators evaluated at the instantaneous beta_z.  Starting from
    product Gibbs states, the collector stays in its invariant subspace:
    d populations plus the one coherence of the coupled pair; the modulator
    stays diagonal.  The d + 5 real coordinates are integrated with a stiff
    (BDF) integrator and an analytic Jacobian: the fast rates exceed the
    slow ones by a factor gamma/mu.  The final density matrices are
    Hermitian by construction and zero off the subspace.
    """
    from scipy.integrate import cumulative_trapezoid, solve_ivp

    if not tau >= 0.0:
        raise ConfigError("tau must be non-negative")
    if not (spec.capacity > 0.0):
        raise StructuralError("reservoir capacity must be positive")
    inputs = tuple(float(b) for b in inputs)
    if len(inputs) != spec.n:
        raise StructuralError(f"expected {spec.n} inputs, got {len(inputs)}")

    model = _reduced_model(spec, inputs)
    a, b = model.pair
    size = model.gen0.shape[0]
    d = size - 4
    # The last row of k0 + g k1 is d(beta_z)/dt: total reservoir heat over C.
    k0 = np.vstack((model.gen0, model.heat0.sum(axis=0) / spec.capacity))
    k1 = np.vstack((model.gen1, model.heat1.sum(axis=0) / spec.capacity))

    # Each register's trace changes only by the rounding in its assembled
    # rates.  Take that rate from the exact column sums (the g-dependent part
    # sums to exactly zero) rather than from d rates that cancel: the
    # cancellation noise along the trace, which the Jacobian cannot damp,
    # otherwise fails BDF's Newton test and stalls the step size near
    # stationarity.
    blocks = (slice(0, d), slice(d + 2, size))
    col_sums = [np.array([math.fsum(col) for col in k0[blk, blk].T]) for blk in blocks]

    def rhs(_t, y):
        x = y[:-1]
        f = k0 @ x + spec.g_z(y[-1]) * (k1 @ x)
        for blk, sums in zip(blocks, col_sums):
            f[blk.start] = sums @ x[blk] - f[blk.start + 1:blk.stop].sum()
        return f

    def jac(_t, y):
        g = spec.g_z(y[-1])
        dg = -spec.eps_z * g * (1.0 - g)
        return np.column_stack((k0 + g * k1, dg * (k1 @ y[:-1])))

    betas = (spec.beta0,) + inputs
    p_c0 = gibbs_register(collector_register(spec), betas + (beta_z0,)).diagonal().real
    p_m0 = gibbs_register(modulator_register(spec), (spec.beta_r,)).diagonal().real
    y0 = np.concatenate((p_c0, [0.0, 0.0], p_m0, [float(beta_z0)]))

    times = _sample_times(tau, per_decade)
    if tau <= 0.0:
        ys = y0[:, None]
    else:
        sol = solve_ivp(rhs, (0.0, tau), y0, method="BDF", t_eval=times,
                        rtol=rtol, atol=atol, jac=jac)
        if not sol.success:
            raise RuntimeError(
                f"full integration failed: {sol.message}; consider rescaling the "
                "reservoir capacity C to soften the slow time scale")
        ys = sol.y

    xs = ys[:-1].T
    bz_arr = ys[-1].copy()
    g = spec.g_z(bz_arr)
    dxs = xs @ model.gen0.T + g[:, None] * (xs @ model.gen1.T)
    j_c = xs @ model.heat0[0] + g * (xs @ model.heat1[0])
    j_m = xs @ model.heat0[1] + g * (xs @ model.heat1[1])

    # The collector state is diagonal except for the {a, b} block.
    diagonal = np.ones(d, dtype=bool)
    diagonal[[a, b]] = False
    w, u = np.linalg.eigh(_pair_block(xs, a, b))
    dw = np.einsum("sji,sjk,ski->si", u.conj(), _pair_block(dxs, a, b), u).real
    ds = (_entropy_rate(xs[:, :d][:, diagonal], dxs[:, :d][:, diagonal])
          + _entropy_rate(w, dw) + _entropy_rate(xs[:, d + 2:], dxs[:, d + 2:]))
    # Heat from every bath, weighted by its inverse temperature.
    sdot = ds - xs @ model.flux - bz_arr * (j_c + j_m)
    sigma = (cumulative_trapezoid(sdot, times, initial=0.0)
             if len(times) > 1 else np.zeros(1))

    x = xs[-1]
    rho_c = np.diag(x[:d]).astype(complex)
    rho_c[a, b] = complex(x[d], x[d + 1])
    rho_c[b, a] = complex(x[d], -x[d + 1])
    rho_m = np.diag(x[d + 2:]).astype(complex)
    return Trajectory(t=times, beta_z=bz_arr, j_collector=j_c, j_modulator=j_m,
                      sigma_dot=sdot, sigma=sigma,
                      final_rho_collector=rho_c, final_rho_modulator=rho_m)


def accumulated_dissipation(trajectory: Trajectory) -> float:
    """Time-integrated entropy production, by trapezoidal quadrature."""
    if len(trajectory.t) < 2:
        return 0.0
    return float(np.trapezoid(trajectory.sigma_dot, trajectory.t))
