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

which is non-negative term by term.  It also integrates in closed form:
j_C + j_M = C d(beta_z)/dt, and mu' j_C - mu j_M = mu mu' eps_z (g_r - g_v)
is constant (g_r = g_z(beta_r), g_v = g_z(beta_v)), so from beta_z(0) = beta_z0

    sigma(t) = -C (beta_z(t)^2 - beta_z0^2) / 2
               + [C (mu beta_v + mu' beta_r) (beta_z(t) - beta_z0)
                  + mu mu' eps_z (g_r - g_v) (beta_v - beta_r) t] / (mu + mu').
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, SolverError, StructuralError
from .neuron import NeuronSpec
from .quantum import BathContact, QubitRegister, _thermal
from .virtual import (build_interaction_hamiltonian, coupled_levels,
                      virtual_temperature)

CSV_HEADER = ("t", "beta_z", "j_C", "j_M", "sigma_dot", "sigma")
QUASI_RTOL = 1e-9   # relative tolerance of the quasi-static run
FULL_RTOL, FULL_ATOL = 1e-8, 1e-12   # tolerances of the full co-integration
MAX_RHS_CALLS = 50_000   # right-hand-side evaluations a run may take before it fails
PER_DECADE = 200    # samples per decade of t, from min(1e-2, tau/10) to tau
# Shortest positive tau a run takes.  Below about 1e-150 LSODA spends
# MAX_RHS_CALLS without a step, and below about 1e-322 the sample times
# underflow, although nothing can move in so short a time.
TAU_FLOOR = 1e-100


@dataclass
class Trajectory:
    """Sampled slow evolution: reservoir temperature, currents, dissipation.

    Full co-integration additionally records the final collector and
    modulator density matrices (None for quasi-static runs).  ``sigma``, the
    running trapezoid integral of sigma_dot over t, is derived, not passed.
    """

    t: np.ndarray
    beta_z: np.ndarray
    j_collector: np.ndarray
    j_modulator: np.ndarray
    sigma_dot: np.ndarray
    sigma: np.ndarray = field(init=False)
    final_rho_collector: np.ndarray | None = None
    final_rho_modulator: np.ndarray | None = None

    def __post_init__(self):
        n = len(self.t)
        for name in ("beta_z", "j_collector", "j_modulator", "sigma_dot"):
            if len(getattr(self, name)) != n:
                raise StructuralError(f"trajectory column {name} has wrong length")
        if n > 1 and not np.all(np.diff(self.t) > 0):
            raise StructuralError("trajectory times must be strictly increasing")
        # scipy's cumulative_trapezoid(sigma_dot, t, initial=0.0), bit for bit.
        s = self.sigma_dot
        self.sigma = np.concatenate(
            ([0.0], np.cumsum(np.diff(self.t) * (s[1:] + s[:-1]) / 2.0)))

    @property
    def endpoint(self) -> float:
        return float(self.beta_z[-1])


def _sample_times(tau: float) -> np.ndarray:
    if tau <= 0.0:
        return np.array([0.0])
    lo = min(1e-2, tau / 10.0)
    decades = math.log10(tau / lo)
    npts = max(2, int(math.ceil(decades * PER_DECADE)))
    ts = np.geomspace(lo, tau, npts)
    ts[-1] = tau
    return np.concatenate(([0.0], ts))


def _solve(rhs, jac, y0: np.ndarray, tau: float, failure: str,
           rtol: float, atol: float) -> tuple[np.ndarray, np.ndarray]:
    """Sample times and the states there (one column each) of dy/dt = rhs from
    y0 by LSODA; tau = 0 gives y0 alone.  `failure` is the SolverError text
    around {}.  LSODA states why it failed only in a warning, so the warnings
    of the solve are held: a failure raises with their text in place of
    solve_ivp's generic message, a success re-emits them once each.  A run
    whose steps shrink to nothing would never return, so past MAX_RHS_CALLS
    evaluations of rhs it fails too."""
    times = _sample_times(tau)
    if tau <= 0.0:
        return times, y0[:, None]
    from scipy.integrate import solve_ivp
    calls = itertools.count(1)

    def counted(t, y):
        if next(calls) > MAX_RHS_CALLS:
            raise SolverError(failure.format(
                f"no result after {MAX_RHS_CALLS} right-hand-side evaluations"))
        return rhs(t, y)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sol = solve_ivp(counted, (0.0, tau), y0, method="LSODA", t_eval=times, jac=jac,
                        rtol=rtol, atol=atol)
    seen = {(str(w.message), w.category, w.filename, w.lineno): w for w in caught}
    if not sol.success:
        reasons = [str(w.message) for w in seen.values()] or [sol.message]
        raise SolverError(failure.format("; ".join(r.removesuffix(".") for r in reasons)))
    for w in seen.values():
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    return times, sol.y


def _check_run(spec: NeuronSpec, inputs: Sequence[float], beta_z0: float,
               tau: float) -> tuple[float, ...]:
    """The inputs as floats, once the run's arguments are known to be valid."""
    if not (math.isfinite(tau) and tau >= 0.0):
        raise ConfigError(f"tau must be non-negative and finite, got {tau!r}")
    if 0.0 < tau < TAU_FLOOR:
        raise ConfigError(f"tau must be 0 or at least {TAU_FLOOR:g}, got {tau!r}")
    inputs = tuple(float(b) for b in inputs)
    if len(inputs) != spec.n:
        raise StructuralError(f"expected {spec.n} inputs, got {len(inputs)}")
    # A bath's beta times a level energy enters every heat and entropy term;
    # where that product overflows, they come out inf or nan.  The largest
    # level energy in magnitude sums all positive gaps or all negative ones.
    gaps = spec.eps + (spec.eps_z,)
    e_max = float(max(sum(g for g in gaps if g > 0), -sum(g for g in gaps if g < 0)))
    names = ["beta_z0"] + [f"input {i}" for i in range(1, spec.n + 1)]
    for name, beta in zip(names, (beta_z0,) + inputs):
        if not math.isfinite(beta * e_max):
            raise ConfigError(f"{name} must be finite, also times the largest "
                              f"level energy {e_max:.6g}; got {beta!r}")
    return inputs


def evolve_quasi_static(spec: NeuronSpec, inputs: Sequence[float], beta_z0: float,
                        tau: float) -> Trajectory:
    """Integrate the calorimetric equation with the fast parts at steady state."""
    inputs = _check_run(spec, inputs, beta_z0, tau)
    betas = (spec.beta0,) + inputs
    beta_v = virtual_temperature(spec.h, betas, spec.eps, spec.eps_z)
    g_v = spec.g_z(beta_v)
    g_r = spec.g_z(spec.beta_r)

    def currents(bz):
        """(g_z(bz), j_C, j_M) with the reservoir at bz (float or array)."""
        g_bz = spec.g_z(bz)
        return (g_bz, spec.mu * spec.eps_z * (g_bz - g_v),
                spec.mu_prime * spec.eps_z * (g_bz - g_r))

    def rhs(_t, y):
        _, j_c, j_m = currents(float(y[0]))
        return [(j_c + j_m) / spec.capacity]

    def jac(_t, y):
        bz = float(y[0])
        g = spec.g_z(bz)
        dg = -spec.eps_z * g * (1.0 - g) if math.isfinite(bz * spec.eps_z) else 0.0
        return [[(spec.mu + spec.mu_prime) * spec.eps_z * dg / spec.capacity]]

    times, (bz,) = _solve(rhs, jac, np.array([float(beta_z0)]), tau,
                          "quasi-static integration failed: {}", QUASI_RTOL, 1e-13)
    g_bz, j_c, j_m = currents(bz)
    sdot = (spec.mu * spec.eps_z * (g_v - g_bz) * (bz - beta_v)
            + spec.mu_prime * spec.eps_z * (g_r - g_bz) * (bz - spec.beta_r))
    return Trajectory(t=times, beta_z=bz, j_collector=j_c, j_modulator=j_m,
                      sigma_dot=sdot)


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


def _lift(rates: np.ndarray, qubit: int, m: int) -> np.ndarray:
    """1 (x) rates (x) 1: one qubit's 2 x 2 rates on 2^m populations (qubit 0 is the MSB)."""
    return np.kron(np.kron(np.eye(1 << qubit), rates), np.eye(1 << (m - 1 - qubit)))


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
    """Assemble the reduced generator from per-qubit rates.

    Each qubit has its own reset: at rate r toward (1 - f, f), the 2 x 2 rate
    matrix R = r [[-f, 1 - f], [f, -(1 - f)]], lifted as 1 (x) R (x) 1 onto the
    populations.  As a and b differ in every qubit, every reset also damps c
    at its own rate.  The interaction chi (|a><b| + |b><a|) exchanges p_a and
    p_b through Im c.  Heat terms are Tr[(H0 + Hint) L_k rho] = E . (L_k p)
    + 2 chi Re (L_k c).
    """
    reg_c = collector_register(spec)
    d = reg_c.dim
    a, b = coupled_levels(spec.h, reg_c)
    chi = spec.chi
    re, im, size = d, d + 1, d + 4
    gen0, gen1 = np.zeros((size, size)), np.zeros((size, size))
    heat0, heat1 = np.zeros((2, size)), np.zeros((2, size))
    flux = np.zeros(size)

    betas = (spec.beta0,) + tuple(inputs)
    energies_c = reg_c.level_energies()
    # Collector, then modulator: fixed baths on the leading qubits, the reservoir on the last.
    registers = ((reg_c.gaps, energies_c, betas, spec.mu, slice(0, d)),
                 ((spec.eps_z,), np.array([0.0, spec.eps_z]), (spec.beta_r,),
                  spec.mu_prime, slice(d + 2, size)))
    for row, (gaps, energies, fixed, rate, blk) in enumerate(registers):
        m = len(gaps)
        for k, beta in enumerate(fixed):
            # r((1 - f) - 1), the dense reset's form; -f would move the outputs' last bits.
            q, f = _thermal(beta, gaps[k])
            rates = _lift(spec.gamma * np.array([[q - 1.0, q], [f, f - 1.0]]), k, m)
            gen0[blk, blk] += rates
            flux[blk] += beta * (energies @ rates)
        # The reservoir resets the last qubit toward (1 - g, g) = (1, 0) + g (-1, 1).
        res0 = _lift(rate * np.array([[0.0, 1.0], [0.0, -1.0]]), m - 1, m)
        res1 = _lift(rate * np.array([[-1.0, -1.0], [1.0, 1.0]]), m - 1, m)
        gen0[blk, blk] += res0
        gen1[blk, blk] += res1
        heat0[row, blk], heat1[row, blk] = energies @ res0, energies @ res1

    # The pair: every reset damps c; the interaction exchanges p_a and p_b
    # through Im c.  E_a - E_b is zero up to the resonance tolerance.
    decay = sum(spec.gamma for _ in betas) + spec.mu
    detuning = energies_c[a] - energies_c[b]
    gen0[a, im], gen0[b, im] = -2.0 * chi, 2.0 * chi
    gen0[re, re], gen0[re, im] = -decay, detuning
    gen0[im, re], gen0[im, im] = -detuning, -decay
    gen0[im, a], gen0[im, b] = chi, -chi
    flux[re] = -2.0 * chi * sum(beta * spec.gamma for beta in betas)
    heat0[0, re] = -2.0 * chi * spec.mu
    return _ReducedModel(gen0, gen1, heat0, heat1, flux, (a, b))


def _entropy_rate(w: np.ndarray, dw: np.ndarray) -> np.ndarray:
    """dS/dt = -sum_k dw_k log w_k over eigenvalues w floored at 1e-18, per row."""
    return -(dw * np.log(np.clip(w, 1e-18, None))).sum(axis=-1)


def _pair_eigenvalues(pair: np.ndarray, dpair: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues m +- r of the block [[p_a, c], [c*, p_b]] and their rates, per
    row of (p_a, p_b, Re c, Im c) and its derivative; dr = 0 where r = 0."""
    (pa, pb, re, im), (dpa, dpb, dre, dim) = pair.T, dpair.T
    m, h, dm, dh = (pa + pb) / 2, (pa - pb) / 2, (dpa + dpb) / 2, (dpa - dpb) / 2
    r = np.sqrt(h * h + re * re + im * im)
    with np.errstate(divide="ignore", invalid="ignore"):
        dr = np.where(r > 0.0, (h * dh + re * dre + im * dim) / r, 0.0)
    return np.column_stack((m + r, m - r)), np.column_stack((dm + dr, dm - dr))


def evolve_full(spec: NeuronSpec, inputs: Sequence[float], beta_z0: float,
                tau: float) -> Trajectory:
    """Co-integrate collector state, modulator state, and the reservoir temperature.

    The collector and modulator evolve as separate registers (they share no
    Hamiltonian coupling, only the common reservoir), with the reservoir
    dissipators evaluated at the instantaneous beta_z.  Starting from
    product Gibbs states, the collector stays in its invariant subspace:
    d populations plus the one coherence of the coupled pair; the modulator
    stays diagonal.  The d + 5 real coordinates are integrated by LSODA,
    which switches to its stiff (BDF) method with the analytic Jacobian: the
    fast rates exceed the slow ones by a factor gamma/mu.  The final density
    matrices are Hermitian by construction and zero off the subspace.  The
    entropy rate uses the pair's closed-form eigenvalues: no eigensolver runs.
    """
    inputs = _check_run(spec, inputs, beta_z0, tau)

    model = _reduced_model(spec, inputs)
    a, b = model.pair
    size = model.gen0.shape[0]
    d = size - 4
    # The last row of k0 + g k1 is d(beta_z)/dt: total reservoir heat over C.
    # Stacked, one product per RHS call gives both.
    k01 = np.vstack((model.gen0, model.heat0.sum(axis=0) / spec.capacity,
                     model.gen1, model.heat1.sum(axis=0) / spec.capacity))
    k0, k1 = k01[:size + 1], k01[size + 1:]

    # Each register's trace changes only by the rounding in its assembled
    # rates.  Take that rate from the exact column sums (the g-dependent part
    # sums to exactly zero) rather than from d rates that cancel.  LSODA
    # converges either way, but the endpoints follow the trace drift: without
    # the exact sums NOT (0) moves by 3e-10, against the 1e-9 bound of the
    # benchmark's reference endpoints.
    col_sums = np.zeros((2, size))
    for row, blk in enumerate((slice(0, d), slice(d + 2, size))):
        col_sums[row, blk] = [math.fsum(col) for col in k0[blk, blk].T]

    def rhs(_t, y):
        x = y[:-1]
        kx = k01 @ x
        f = kx[:size + 1] + spec.g_z(float(y[-1])) * kx[size + 1:]
        trace_c, trace_m = col_sums @ x
        f[0] = trace_c - f[1:d].sum()
        f[d + 2] = trace_m - f[d + 3]   # the modulator's two populations
        return f

    def jac(_t, y):
        g = spec.g_z(float(y[-1]))
        dg = -spec.eps_z * g * (1.0 - g)
        return np.column_stack((k0 + g * k1, dg * (k1 @ y[:-1])))

    # Product Gibbs states: Kronecker products of the qubits' populations.
    p_c0 = np.ones(1)
    for beta, gap in zip((spec.beta0,) + inputs + (beta_z0,), spec.eps + (spec.eps_z,)):
        p_c0 = np.kron(p_c0, _thermal(beta, gap))
    y0 = np.concatenate((p_c0, [0.0, 0.0], _thermal(spec.beta_r, spec.eps_z), [beta_z0]))

    times, ys = _solve(rhs, jac, y0, tau,
                       "full integration failed: {}; consider rescaling the "
                       "reservoir capacity C to soften the slow time scale",
                       FULL_RTOL, FULL_ATOL)
    xs = ys[:-1].T
    bz_arr = ys[-1].copy()
    g = spec.g_z(bz_arr)
    dxs = xs @ model.gen0.T + g[:, None] * (xs @ model.gen1.T)
    j_c = xs @ model.heat0[0] + g * (xs @ model.heat1[0])
    j_m = xs @ model.heat0[1] + g * (xs @ model.heat1[1])

    # Both states are diagonal except for the collector's {a, b} block.
    pair = [a, b, d, d + 1]
    w, dw = _pair_eigenvalues(xs[:, pair], dxs[:, pair])
    rest = np.delete(np.arange(size), pair)
    ds = _entropy_rate(np.hstack((xs[:, rest], w)), np.hstack((dxs[:, rest], dw)))
    # Heat from every bath, weighted by its inverse temperature.
    sdot = ds - xs @ model.flux - bz_arr * (j_c + j_m)

    x = xs[-1]
    rho_c = np.diag(x[:d]).astype(complex)
    rho_c[a, b], rho_c[b, a] = complex(x[d], x[d + 1]), complex(x[d], -x[d + 1])
    rho_m = np.diag(x[d + 2:]).astype(complex)
    return Trajectory(t=times, beta_z=bz_arr, j_collector=j_c, j_modulator=j_m,
                      sigma_dot=sdot, final_rho_collector=rho_c, final_rho_modulator=rho_m)
