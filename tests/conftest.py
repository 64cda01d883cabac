"""Shared fixtures: standard machines, random machines and random states,
and the dense oracle's helpers: the einsum partial trace that the gathered
reset replaced, bath heat currents and the modulator's contacts."""

import numpy as np
import pytest

import thermoneuron as tn
from thermoneuron.errors import StructuralError
from thermoneuron.quantum import BathContact, reset_dissipator


@pytest.fixture
def small_collector():
    """Single-input neuron with modest gaps (eps = 2, 1; target gap 1)."""
    return tn.build_neuron((2.0, 1.0), (0, 1), 1.0, 1.0, mu=1e-4)


@pytest.fixture
def fig2_inverter():
    """The steep inverter: input gap 20, beta0 = 0.5, target gap 0.1."""
    return tn.inverter(20.0, 0.1)


def on_rails(spec, rails):
    """`spec` with its modulator calibrated to `rails`: NeuronSpec is the one
    place a machine's rails are set, no builder takes them."""
    cal = tn.calibrate_modulator(*rails, spec.eps_z, spec.mu)
    return tn.NeuronSpec(eps=spec.eps, h=spec.h, beta0=spec.beta0, eps_z=spec.eps_z,
                         beta_r=cal.beta_r, mu_prime=cal.mu_prime, mu=spec.mu,
                         beta_hot=rails[0], beta_cold=rails[1])


def random_neuron(rng, n_max=3, mu=1e-4):
    """Random calibrated neuron with rails (0, 1)."""
    n = int(rng.integers(1, n_max + 1))
    h_tail = tuple(int(b) for b in rng.integers(0, 2, n))
    eps_tail = tuple(float(e) for e in rng.uniform(0.5, 4.0, n))
    # Reference qubit closes the resonance at a positive target gap.
    eps_z = float(rng.uniform(0.2, 2.0))
    tail_sum = sum(e if b == 0 else -e for b, e in zip(h_tail, eps_tail))
    ref = eps_z - tail_sum
    h = ((0,) if ref >= 0 else (1,)) + h_tail
    eps = (abs(ref),) + eps_tail
    if abs(ref) < 1e-6:
        eps = (eps[0] + 1.0,) + eps_tail
        eps_z += 1.0 if h[0] == 0 else -1.0
        if eps_z <= 0.05:
            return random_neuron(rng, n_max=n_max, mu=mu)
    beta0 = float(rng.uniform(0.0, 1.5))
    return tn.build_neuron(eps, h, beta0, eps_z, mu=mu)


def random_inputs(rng, spec):
    return tuple(float(b) for b in rng.uniform(0.0, 1.0, spec.n))


def validate_density_matrix(rho, herm_tol=1e-12, trace_tol=1e-12, eig_tol=1e-10):
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


def random_density_matrix(dim, rng):
    """Ginibre-random full-rank density matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def thermalize_qubit(rho, k, m, tau):
    """Tr_k[rho] tensored with tau reinserted at slot k, by einsum over the
    last two axes: the formula `quantum.reset_dissipator` used before it
    became elementwise, kept as its bit-for-bit oracle."""
    d1 = 1 << k
    d2 = 1 << (m - k - 1)
    t = rho.reshape(rho.shape[:-2] + (d1, 2, d2, d1, 2, d2))
    reduced = np.einsum("...aibcid->...abcd", t)
    out = np.einsum("...abcd,ij->...aibcjd", reduced, tau)
    return out.reshape(rho.shape)


def heat_current(rho, h, contact, register):
    """Tr[H L_k[rho]]: heat flowing from bath k into the machine."""
    return float(np.trace(h @ reset_dissipator(rho, contact, register)).real)


def modulator_contacts(spec, beta_z):
    """Bath contacts of the modulator qubit: its rail bath, then the reservoir."""
    contacts = [BathContact(0, spec.beta_r, spec.gamma)]
    if spec.mu_prime > 0:
        contacts.append(BathContact(0, beta_z, spec.mu_prime))
    return contacts
