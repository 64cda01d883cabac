"""Dense density-matrix machinery for few-qubit reset-model machines.

A register of m qubits (m <= 12) lives in a dense complex 2^m x 2^m
density matrix; qubit 0 is the leftmost tensor factor (most significant
bit of the basis index).  Each qubit may touch one or more thermal baths.
A bath acts through the reset dissipator: at rate ``gamma`` the qubit is
replaced by its local Gibbs state, leaving the rest of the register
untouched.  All quantities are in natural units (k_B = hbar = 1) and an
inverse temperature ``beta`` may be any finite real; beta < 0 describes a
population-inverted bath and is accepted with a warning.

The interaction Hamiltonian must commute with the free Hamiltonian
(energy-preserving weak coupling); `lindblad_rhs` rejects anything else.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateSteadyStateError, StructuralError

__all__ = [
    "MAX_QUBITS",
    "QubitRegister",
    "BathContact",
    "StepControl",
    "fermi_population",
    "gibbs_qubit",
    "gibbs_register",
    "reset_dissipator",
    "lindblad_rhs",
    "integrate_master",
    "superoperator_matrix",
    "steady_state",
    "heat_current",
    "entropy_production_rate",
    "von_neumann_entropy",
    "validate_density_matrix",
    "random_density_matrix",
]

MAX_QUBITS = 12


def _libm(fn, x):
    """`fn` from `math` on a float or on every element of an array (numpy's
    exp/log ufuncs differ from libm by an ulp on some inputs)."""
    if not isinstance(x, np.ndarray):
        return fn(x)
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


def fermi_population(x):
    """Excited-state occupation 1/(1 + e^x) for dimensionless x = beta*eps.

    Elementwise on arrays; total on the extended reals (+inf -> 0, -inf -> 1).
    """
    array = isinstance(x, np.ndarray)
    if np.isnan(x).any() if array else math.isnan(x):
        raise ValueError("fermi_population: argument is NaN")
    z = _libm(math.exp, -abs(x))
    if array:
        return np.where(x >= 0.0, z / (1.0 + z), 1.0 / (1.0 + z))
    return z / (1.0 + z) if x >= 0.0 else 1.0 / (1.0 + z)


def gibbs_qubit(beta: float, eps: float) -> np.ndarray:
    """Single-qubit thermal state diag(1 - g, g) with g = fermi_population(beta*eps)."""
    g = fermi_population(beta * eps)
    return np.diag([1.0 - g, g]).astype(complex)


@dataclass(frozen=True)
class QubitRegister:
    """Energy gaps of an ordered qubit register; the free Hamiltonian is diagonal."""

    gaps: tuple[float, ...]

    def __post_init__(self):
        gaps = tuple(float(g) for g in self.gaps)
        object.__setattr__(self, "gaps", gaps)
        if len(gaps) == 0:
            raise StructuralError("register needs at least one qubit")
        if len(gaps) > MAX_QUBITS:
            raise StructuralError(
                f"register capped at {MAX_QUBITS} qubits, got {len(gaps)}")
        if not all(math.isfinite(g) for g in gaps):
            raise StructuralError("all energy gaps must be finite")

    @property
    def m(self) -> int:
        return len(self.gaps)

    @property
    def dim(self) -> int:
        return 1 << len(self.gaps)

    def level_energies(self) -> np.ndarray:
        """Diagonal of the free Hamiltonian: sum of gaps over occupied qubits."""
        idx = np.arange(self.dim)
        e = np.zeros(self.dim)
        for i, gap in enumerate(self.gaps):
            e += gap * ((idx >> (self.m - 1 - i)) & 1)
        return e

    def free_hamiltonian(self) -> np.ndarray:
        return np.diag(self.level_energies()).astype(complex)

    def basis_index(self, bits: Sequence[int]) -> int:
        """Basis index of a product state; bits[0] belongs to qubit 0 (MSB)."""
        if len(bits) != self.m:
            raise StructuralError(f"expected {self.m} bits, got {len(bits)}")
        idx = 0
        for b in bits:
            if b not in (0, 1):
                raise StructuralError("bits must be 0 or 1")
            idx = (idx << 1) | b
        return idx


@dataclass(frozen=True)
class BathContact:
    """One qubit-bath coupling: reset toward Gibbs(beta) at the given rate."""

    qubit_index: int
    beta: float
    rate: float

    def __post_init__(self):
        if not (self.rate > 0.0) or not math.isfinite(self.rate):
            raise StructuralError("bath coupling rate must be strictly positive")
        if not math.isfinite(self.beta):
            raise StructuralError("bath inverse temperature must be finite")
        if self.beta < 0.0:
            warnings.warn(
                "bath contact at negative inverse temperature "
                "(population-inverted bath)", stacklevel=2)


def _check_state_shape(rho: np.ndarray, register: QubitRegister) -> None:
    if rho.shape != (register.dim, register.dim):
        raise StructuralError(
            f"state shape {rho.shape} does not match register dimension {register.dim}")


def _thermalize_qubit(rho: np.ndarray, k: int, m: int, tau: np.ndarray) -> np.ndarray:
    """Tr_k[rho] tensored with tau reinserted at slot k."""
    d1 = 1 << k
    d2 = 1 << (m - k - 1)
    t = rho.reshape(d1, 2, d2, d1, 2, d2)
    reduced = np.einsum("aibcid->abcd", t)
    out = np.einsum("abcd,ij->aibcjd", reduced, tau)
    return out.reshape(rho.shape)


def reset_dissipator(rho: np.ndarray, contact: BathContact,
                     register: QubitRegister) -> np.ndarray:
    """gamma * (Tr_k[rho] (x) tau(beta_k) - rho); traceless and Hermiticity-preserving."""
    _check_state_shape(rho, register)
    k = contact.qubit_index
    if not 0 <= k < register.m:
        raise StructuralError(f"qubit index {k} outside register of size {register.m}")
    tau = gibbs_qubit(contact.beta, register.gaps[k])
    return contact.rate * (_thermalize_qubit(rho, k, register.m, tau) - rho)


COMMUTATOR_TOL = 1e-10


def lindblad_rhs(rho: np.ndarray, h0: np.ndarray, hint: np.ndarray,
                 contacts: Sequence[BathContact],
                 register: QubitRegister) -> np.ndarray:
    """Local master-equation right-hand side -i[H0+Hint, rho] + sum_k L_k[rho].

    The interaction must conserve energy, [Hint, H0] = 0; a non-commuting
    interaction violates the weak-coupling validity of the local equation
    and is rejected.
    """
    _check_state_shape(rho, register)
    if h0.shape != rho.shape or hint.shape != rho.shape:
        raise StructuralError("Hamiltonian dimensions do not match the state")
    comm = hint @ h0 - h0 @ hint
    worst = float(np.abs(comm).max())
    if worst > COMMUTATOR_TOL:
        raise StructuralError(
            f"interaction does not conserve energy: max|[Hint, H0]| = {worst:.3e} "
            f"> {COMMUTATOR_TOL:.0e}")
    h = h0 + hint
    out = -1j * (h @ rho - rho @ h)
    for contact in contacts:
        out = out + reset_dissipator(rho, contact, register)
    return out


@dataclass
class StepControl:
    """Adaptive step-size controls for `integrate_master`."""

    atol: float = 1e-10
    rtol: float = 1e-8
    h_initial: float | None = None
    h_max: float = math.inf
    max_steps: int = 5_000_000


# Dormand-Prince 5(4) tableau.
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
          -92097 / 339200, 187 / 2100, 1 / 40)


def integrate_master(rho0: np.ndarray, rhs: Callable[[np.ndarray], np.ndarray],
                     horizon: float, control: StepControl | None = None) -> np.ndarray:
    """Propagate rho to the given horizon with an embedded Runge-Kutta 5(4) pair.

    Each accepted step re-Hermitizes the state; the output is additionally
    trace-renormalized.  Positivity drift beyond 1e-8 is reported via a
    warning.  Step-size underflow aborts with a diagnostic.
    """
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    ctrl = control or StepControl()
    y = np.array(rho0, dtype=complex)
    if horizon == 0.0:
        return y
    t = 0.0
    f0 = rhs(y)
    scale0 = float(np.abs(f0).max())
    h = ctrl.h_initial if ctrl.h_initial is not None else min(
        horizon, 0.1 / (1.0 + scale0), ctrl.h_max)
    k = [None] * 7
    for _ in range(ctrl.max_steps):
        if t >= horizon:
            break
        h = min(h, horizon - t, ctrl.h_max)
        if h < 1e-14 * max(1.0, t):
            raise RuntimeError(
                f"integrate_master: step-size underflow at t = {t:.6e} (h = {h:.3e})")
        k[0] = rhs(y)
        for i in range(1, 7):
            yi = y
            for j, a in enumerate(_DP_A[i]):
                if a != 0.0:
                    yi = yi + (h * a) * k[j]
            k[i] = rhs(yi)
        y5 = y
        for i, b in enumerate(_DP_B5):
            if b != 0.0:
                y5 = y5 + (h * b) * k[i]
        err = np.zeros_like(y)
        for i, (b5, b4) in enumerate(zip(_DP_B5, _DP_B4)):
            d = b5 - b4
            if d != 0.0:
                err = err + (h * d) * k[i]
        scale = ctrl.atol + ctrl.rtol * float(np.abs(y5).max())
        ratio = float(np.abs(err).max()) / scale
        if ratio <= 1.0:
            t += h
            y = 0.5 * (y5 + y5.conj().T)
        factor = 0.9 * (max(ratio, 1e-16)) ** (-0.2)
        h *= min(5.0, max(0.2, factor))
    else:
        raise RuntimeError("integrate_master: step budget exhausted")
    y = 0.5 * (y + y.conj().T)
    tr = float(np.trace(y).real)
    if abs(tr) < 1e-12:
        raise RuntimeError("integrate_master: state trace collapsed")
    y = y / tr
    min_eig = float(np.linalg.eigvalsh(y).min())
    if min_eig < -1e-8:
        warnings.warn(f"integrate_master: positivity drift {min_eig:.3e} exceeds 1e-8",
                      stacklevel=2)
    return y


def superoperator_matrix(apply_fn: Callable[[np.ndarray], np.ndarray],
                         dim: int) -> np.ndarray:
    """Matrix of a linear map on dim x dim operators, in row-major vectorization."""
    n2 = dim * dim
    mat = np.empty((n2, n2), dtype=complex)
    basis = np.zeros((dim, dim), dtype=complex)
    for p in range(n2):
        basis.flat[p] = 1.0
        mat[:, p] = apply_fn(basis).reshape(-1)
        basis.flat[p] = 0.0
    return mat


def steady_state(rhs: Callable[[np.ndarray], np.ndarray], dim: int) -> np.ndarray:
    """Unit-trace null vector of a linear generator, by dense SVD.

    Raises `DegenerateSteadyStateError` when the numerical null space has
    dimension greater than one.  The returned state satisfies
    max|rhs(rho)| <= 1e-10.
    """
    gen = superoperator_matrix(rhs, dim)
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
        raise RuntimeError(
            f"steady-state residual {residual:.3e} exceeds 1e-10")
    return rho


def heat_current(rho: np.ndarray, h: np.ndarray, contact: BathContact,
                 register: QubitRegister) -> float:
    """Tr[H L_k[rho]]: heat flowing from bath k into the machine."""
    return float(np.trace(h @ reset_dissipator(rho, contact, register)).real)


def von_neumann_entropy(rho: np.ndarray) -> float:
    """-Tr[rho log rho] in nats; eigenvalues below 1e-15 are clamped to zero."""
    w = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    w = w[w > 1e-15]
    return float(-(w * np.log(w)).sum())


def entropy_production_rate(rho: np.ndarray, contacts: Sequence[BathContact],
                            h: np.ndarray, ds_dt: float,
                            register: QubitRegister) -> float:
    """Irreversible entropy rate dS/dt - sum_k beta_k * j_k, with j_k into the machine.

    Equivalently dS/dt plus sum_k beta_k * (heat delivered to bath k); this
    convention is non-negative for every valid state (second law).
    """
    total = ds_dt
    for contact in contacts:
        total -= contact.beta * heat_current(rho, h, contact, register)
    return float(total)


def validate_density_matrix(rho: np.ndarray, herm_tol: float = 1e-12,
                            trace_tol: float = 1e-12,
                            eig_tol: float = 1e-10) -> None:
    """Raise StructuralError unless rho is Hermitian, unit-trace, and PSD."""
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise StructuralError("density matrix must be square")
    herm = float(np.abs(rho - rho.conj().T).max())
    if herm > herm_tol:
        raise StructuralError(f"not Hermitian: max deviation {herm:.3e}")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > trace_tol:
        raise StructuralError(f"trace {tr} differs from 1")
    min_eig = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
    if min_eig < -eig_tol:
        raise StructuralError(f"negative eigenvalue {min_eig:.3e}")


def random_density_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Ginibre-random full-rank density matrix, for property tests."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def gibbs_register(register: QubitRegister, betas: Sequence[float]) -> np.ndarray:
    """Product of single-qubit Gibbs states, one inverse temperature per qubit."""
    if len(betas) != register.m:
        raise StructuralError("one inverse temperature per qubit required")
    rho = np.array([[1.0 + 0j]])
    for beta, eps in zip(betas, register.gaps):
        rho = np.kron(rho, gibbs_qubit(beta, eps))
    return rho
