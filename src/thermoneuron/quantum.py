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
Such generators split into small invariant blocks (a collector's populations
plus its one coupled coherence, the other coherences a few apiece), the
connected components of the generator's nonzero pattern.  `steady_state`
takes one small SVD per block instead of one of size d^2; `integrate_master`
takes one small matrix exponential per block.

Cost.  `lindblad_rhs` acts on the last two axes, so a stack of k operators
costs one call: one check of the Hamiltonians (two d x d products), two
(k, d, d) x (d, d) products, and per contact four elementwise operations on
a reshaped view, with no index table and no cached state, in (k, d^2)
temporaries.  `steady_state` and `integrate_master` take a linear
`rhs` that acts on the last two axes; they probe it with stacks of basis
operators, PROBE_BLOCK entries per call, and keep only the nonzero entries,
so they need memory of order nnz + K d^2, never the d^2 x d^2 matrix.
A collector's `steady_state` takes about 1.6 ms at m = 3, 0.14 s at m = 5
and 1.5 s at m = 6 (one BLAS thread, shared 2-core x86-64 machine).  The
time of `integrate_master` does not grow with the horizon.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateSteadyStateError, SolverError, StructuralError

# Dense states and `lindblad_rhs` take registers up to this size.  The tests run
# `lindblad_rhs`, `steady_state` and `dynamics.evolve_full` up to m = 5 (d = 32)
# and `integrate_master` up to m = 4 (d = 16).
MAX_QUBITS = 12
# Entries per call when `_probe` reads a generator's matrix: each call gets
# a stack of max(1, PROBE_BLOCK // d^2) basis operators, so its temporaries
# stay near 256 KiB whatever d is.
PROBE_BLOCK = 1 << 14


def _libm(fn, x):
    """`fn` from `math` on a float or on every element of an array (numpy's
    exp/log ufuncs differ from libm by an ulp on some inputs)."""
    if not isinstance(x, np.ndarray):
        return fn(x)
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _distinct(x):
    """Distinct float64 bit patterns of `x` (so 0.0 and -0.0 stay apart) and the
    inverse index that gathers them back into x.ravel()."""
    bits, inverse = np.unique(np.ravel(x).astype(float).view(np.int64), return_inverse=True)
    return bits.view(float), inverse


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


def _thermal(beta: float, gap: float) -> tuple[float, float]:
    """Gibbs populations (1 - f, f) of a qubit, f = fermi_population(beta gap)."""
    f = fermi_population(beta * gap)
    return 1.0 - f, f


def gibbs_qubit(beta: float, eps: float) -> np.ndarray:
    """Single-qubit thermal state diag(1 - g, g) with g = fermi_population(beta*eps)."""
    return np.diag(_thermal(beta, eps)).astype(complex)


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
                "(population-inverted bath)",
                stacklevel=3)   # past the dataclass __init__, at the builder


def _check_state_shape(rho: np.ndarray, register: QubitRegister) -> None:
    if rho.shape[-2:] != (register.dim, register.dim):
        raise StructuralError(
            f"state shape {rho.shape} does not match register dimension {register.dim}")


def reset_dissipator(rho: np.ndarray, contact: BathContact,
                     register: QubitRegister) -> np.ndarray:
    """gamma * (Tr_k[rho] (x) tau(beta_k) - rho); traceless and Hermiticity-preserving.

    Acts on the last two axes of `rho`, each split as (2^k, 2, 2^(m-1-k)) so
    that qubit k has an axis of size 2 on either side.  With rho' the view of
    rho with qubit k flipped on both sides and w = diag(tau) on those two axes,
    it is rate * (w * (rho + rho') - rho): where the sides agree, the sum is
    the partial trace, weighted by tau; where they differ, it is dropped.
    """
    _check_state_shape(rho, register)
    k, m = contact.qubit_index, register.m
    if not 0 <= k < m:
        raise StructuralError(f"qubit index {k} outside register of size {m}")
    t = rho.reshape(rho.shape[:-2] + (1 << k, 2, 1 << (m - 1 - k)) * 2)
    tau = np.array(_thermal(contact.beta, register.gaps[k]), dtype=complex)
    w = np.diag(tau).reshape(2, 1, 1, 2, 1)
    out = contact.rate * (w * (t + t[..., ::-1, :, :, ::-1, :]) - t)
    return out.reshape(rho.shape)


COMMUTATOR_TOL = 1e-10


def lindblad_rhs(rho: np.ndarray, h0: np.ndarray, hint: np.ndarray,
                 contacts: Sequence[BathContact],
                 register: QubitRegister) -> np.ndarray:
    """Local master-equation right-hand side -i[H0+Hint, rho] + sum_k L_k[rho].

    Acts on the last two axes of `rho`, so a stack of states costs one call.
    The Hamiltonians must be finite and the interaction must conserve
    energy, [Hint, H0] = 0; a non-commuting interaction violates the
    weak-coupling validity of the local equation.  Both are checked once
    per call and rejected with `StructuralError`.
    """
    _check_state_shape(rho, register)
    if h0.shape != rho.shape[-2:] or hint.shape != rho.shape[-2:]:
        raise StructuralError("Hamiltonian dimensions do not match the state")
    h = h0 + hint
    if not np.isfinite(h).all():
        raise StructuralError("Hamiltonians must be finite")
    comm = hint @ h0 - h0 @ hint
    worst = float(np.abs(comm).max())
    if worst > COMMUTATOR_TOL:
        raise StructuralError(
            f"interaction does not conserve energy: max|[Hint, H0]| = {worst:.3e} "
            f"> {COMMUTATOR_TOL:.0e}")
    out = -1j * (h @ rho - rho @ h)
    for c in contacts:
        out += reset_dissipator(rho, c, register)
    return out


def integrate_master(rho0: np.ndarray, rhs: Callable[[np.ndarray], np.ndarray],
                     horizon: float) -> np.ndarray:
    """Propagate rho0 to the given horizon exactly: exp(L t) rho0, one matrix
    exponential per invariant block of the linear generator `rhs`.

    `rhs` must be linear and act on the last two axes; it is probed as in
    `steady_state`.
    The output is re-Hermitized and trace-renormalized; positivity drift
    beyond 1e-8 is reported via a warning.
    """
    if not (math.isfinite(horizon) and horizon >= 0.0):
        raise ValueError(f"horizon must be non-negative and finite, got {horizon!r}")
    y = np.array(rho0, dtype=complex)
    if y.ndim != 2 or y.shape[0] != y.shape[1]:
        raise StructuralError(f"state shape {y.shape} is not square")
    if horizon == 0.0:
        return y
    from scipy.linalg import expm
    flat, out = y.reshape(-1), np.empty(y.size, dtype=complex)
    with np.errstate(all="ignore"):
        for b, block in _blocks(rhs, len(y)):
            out[b] = expm(block * horizon) @ flat[b]
    if not np.isfinite(out).all():
        raise SolverError("integrate_master: propagated state is not finite")
    y = out.reshape(y.shape)
    y = 0.5 * (y + y.conj().T)
    tr = float(np.trace(y).real)
    if abs(tr) < 1e-12:
        raise SolverError("integrate_master: state trace collapsed")
    y = y / tr
    min_eig = float(np.linalg.eigvalsh(y).min())
    if min_eig < -1e-8:
        warnings.warn(f"integrate_master: positivity drift {min_eig:.3e} exceeds 1e-8",
                      stacklevel=2)
    return y


def _probe(apply_fn: Callable[[np.ndarray], np.ndarray],
           dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonzero entries (rows, cols, values) of the matrix of a linear map on
    dim x dim operators, in row-major vectorization.  The map acts on the
    last two axes, so one call images a stack of basis operators: a block of
    columns, sized by PROBE_BLOCK."""
    n2 = dim * dim
    step = max(1, PROBE_BLOCK // n2)
    rows, cols, vals = [], [], []
    for start in range(0, n2, step):
        k = min(step, n2 - start)
        basis = np.zeros((k, n2), dtype=complex)
        basis[np.arange(k), np.arange(start, start + k)] = 1.0
        out = apply_fn(basis.reshape(k, dim, dim)).reshape(k, n2)
        col, row = np.nonzero(out)
        rows.append(row)
        cols.append(col + start)
        vals.append(out[col, row])
    return (np.concatenate(rows), np.concatenate(cols),
            np.concatenate(vals).astype(complex, copy=False))


def superoperator_matrix(apply_fn: Callable[[np.ndarray], np.ndarray],
                         dim: int) -> np.ndarray:
    """Matrix of a linear map on dim x dim operators, in row-major
    vectorization; the map acts on the last two axes, as for `_probe`."""
    rows, cols, vals = _probe(apply_fn, dim)
    mat = np.zeros((dim * dim, dim * dim), dtype=complex)
    mat[rows, cols] = vals
    return mat


def _blocks(rhs: Callable[[np.ndarray], np.ndarray],
            dim: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(indices, dense block) pairs of the invariant blocks of the probed
    d^2 x d^2 matrix of a linear generator, in row-major vectorization: the
    connected components of its nonzero pattern, by smallest index, each
    ascending.  Every nonzero entry is scattered once into one buffer that
    holds all the blocks; the d^2 x d^2 matrix is never formed."""
    n2 = dim * dim
    rows, cols, vals = _probe(rhs, dim)
    # Label each index by the smallest index joined to it.
    labels = np.arange(n2)
    while True:
        new = labels.copy()
        np.minimum.at(new, rows, labels[cols])
        np.minimum.at(new, cols, labels[rows])
        new = new[new]
        if np.array_equal(new, labels):
            break
        labels = new
    _, labels, sizes = np.unique(labels, return_inverse=True, return_counts=True)
    order = np.argsort(labels, kind="stable")
    ends = np.cumsum(sizes)
    place = np.empty(n2, dtype=np.intp)
    place[order] = np.arange(n2) - (ends - sizes)[labels[order]]
    area = sizes * sizes
    offsets = np.cumsum(area) - area
    buffer = np.zeros(area.sum(), dtype=complex)
    k = labels[rows]
    buffer[offsets[k] + place[rows] * sizes[k] + place[cols]] = vals
    return [(b, buffer[o:o + n * n].reshape(n, n))
            for b, o, n in zip(np.split(order, ends[:-1]), offsets, sizes)]


def steady_state(rhs: Callable[[np.ndarray], np.ndarray], dim: int) -> np.ndarray:
    """Unit-trace null vector of a linear generator, by one dense SVD per
    invariant block (`_blocks`) of its probed d^2 x d^2 matrix.  `rhs` must
    be linear and act on the last two axes: it is probed with stacks of
    basis operators.

    Raises `DegenerateSteadyStateError` when the numerical null space,
    summed over blocks, has dimension greater than one.  The returned state
    satisfies max|rhs(rho)| <= 1e-10.
    """
    blocks = _blocks(rhs, dim)
    svds = [np.linalg.svd(block) for _, block in blocks]
    s_max = max(s[0] for _, s, _ in svds)
    tol = s_max * 1e-11 if s_max > 0 else 1e-14
    nullity = sum(int(np.sum(s < tol)) for _, s, _ in svds)
    if nullity > 1:
        raise DegenerateSteadyStateError(
            f"generator null space has dimension {nullity}; "
            "steady state is not unique")
    k = int(np.argmin([s[-1] for _, s, _ in svds]))
    vec = np.zeros(dim * dim, dtype=complex)
    vec[blocks[k][0]] = svds[k][2][-1].conj()
    rho = vec.reshape(dim, dim)
    rho = 0.5 * (rho + rho.conj().T)
    tr = float(np.trace(rho).real)
    if abs(tr) < 1e-10:
        raise DegenerateSteadyStateError(
            "null vector is traceless; no normalizable steady state found")
    rho = rho / tr
    residual = float(np.abs(rhs(rho)).max())
    if residual > 1e-10:
        raise SolverError(f"steady-state residual {residual:.3e} exceeds 1e-10")
    return rho


def gibbs_register(register: QubitRegister, betas: Sequence[float]) -> np.ndarray:
    """Product of single-qubit Gibbs states, one inverse temperature per qubit."""
    if len(betas) != register.m:
        raise StructuralError("one inverse temperature per qubit required")
    rho = np.array([[1.0 + 0j]])
    for beta, eps in zip(betas, register.gaps):
        rho = np.kron(rho, gibbs_qubit(beta, eps))
    return rho
