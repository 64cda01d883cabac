"""Virtual-qubit algebra: the two-level subspace engineered inside a machine part.

An interaction vector h = (h_0, ..., h_n) of bits picks two product levels
of the machine-part qubits, |h> and its bitwise complement |h xor 1>.
Their populations in a product of Gibbs states define an effective
two-level system whose gap and inverse temperature are simple signed
combinations of the qubit gaps and bath temperatures.  The machine's
target qubit is coupled resonantly to this subspace by a rank-2
energy-preserving interaction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ResonanceError, SingularGapError, StructuralError
from .quantum import QubitRegister, fermi_population

RESONANCE_TOL = 1e-9


def _check_bits(h: Sequence[int]) -> tuple[int, ...]:
    bits = tuple(int(b) for b in h)
    if any(b not in (0, 1) for b in bits):
        raise StructuralError("interaction vector entries must be 0 or 1")
    return bits


def flip(h: Sequence[int]) -> tuple[int, ...]:
    """Bitwise complement of an interaction vector."""
    return tuple(1 - b for b in _check_bits(h))


def virtual_gap(h: Sequence[int], eps: Sequence[float]) -> float:
    """Signed level splitting sum_i (-1)^(h_i + 1) eps_i = E(|h>) - E(|h xor 1>)."""
    bits = _check_bits(h)
    if len(bits) != len(eps):
        raise StructuralError("interaction vector and gap sequence lengths differ")
    return float(sum(e if b else -e for b, e in zip(bits, eps)))


def virtual_population(h: Sequence[int], betas: Sequence[float],
                       eps: Sequence[float]) -> float:
    """Occupation of the product level |h> in a tensor product of Gibbs states.

    Factor i is the ground (h_i = 0) or excited (h_i = 1) population of a
    qubit with gap eps_i thermal at beta_i.
    """
    bits = _check_bits(h)
    if not (len(bits) == len(betas) == len(eps)):
        raise StructuralError("h, betas and eps must have equal lengths")
    p = 1.0
    for b, beta, e in zip(bits, betas, eps):
        x = beta * e
        p *= fermi_population(x if b else -x)
    return p


def weighted_bias(h: Sequence[int], betas: Sequence, eps: Sequence[float]):
    """Signed combination sum_i (-1)^(h_i) beta_i eps_i (the perceptron sum).

    A beta_i may be a column (array); terms add in order i = 0..n either way.
    """
    bits = _check_bits(h)
    if not (len(bits) == len(betas) == len(eps)):
        raise StructuralError("h, betas and eps must have equal lengths")
    total = sum(-beta * e if b else beta * e for b, beta, e in zip(bits, betas, eps))
    return total if isinstance(total, np.ndarray) else float(total)


def virtual_temperature(h: Sequence[int], betas: Sequence, eps: Sequence[float],
                        eps_target: float):
    """Inverse virtual temperature (1/eps_target) * sum_i (-1)^(h_i) beta_i eps_i."""
    if eps_target == 0.0:
        raise SingularGapError("virtual temperature undefined for a zero target gap")
    return weighted_bias(h, betas, eps) / eps_target


@dataclass(frozen=True)
class VirtualQubit:
    """Normalized two-level summary: positive gap, excited population, beta_v.

    ``population`` is the excited-level occupation conditioned on the
    two-level subspace, so population/(1-population) = exp(-beta_v * gap)
    holds as an identity whenever gap != 0.
    """

    gap: float
    population: float
    beta_v: float

    def ratio_residual(self) -> float:
        """|g/(1-g) - exp(-beta_v * gap)|; zero up to rounding."""
        return abs(self.population / (1.0 - self.population)
                   - math.exp(-self.beta_v * self.gap))


def virtual_qubit(h: Sequence[int], betas: Sequence[float],
                  eps: Sequence[float]) -> VirtualQubit:
    """Build the normalized virtual qubit for a machine part.

    When the raw splitting E(|h>) - E(|h xor 1>) is negative the level
    labels are swapped so the stored gap is positive; beta_v is unchanged
    by the relabeling.
    """
    vg = virtual_gap(h, eps)
    if vg == 0.0:
        raise SingularGapError("virtual qubit is degenerate (zero gap)")
    t = weighted_bias(h, betas, eps)
    # log P(|h>) - log P(|h xor 1>) = t, exactly.
    beta_v = -t / vg
    pop = fermi_population(-t) if vg > 0 else fermi_population(t)
    return VirtualQubit(gap=abs(vg), population=pop, beta_v=beta_v)


def coupled_levels(h: Sequence[int], register: QubitRegister) -> tuple[int, int]:
    """Basis indices (a, b) of the two levels the interaction couples.

    The register holds the machine-part qubits followed by the target
    qubit; resonance (target gap equal to |virtual gap| within
    RESONANCE_TOL) is required.  The two levels differ in every qubit, and
    their energies by the residual detuning alone.
    """
    bits = _check_bits(h)
    if len(bits) != register.m - 1:
        raise StructuralError(
            f"interaction vector of length {len(bits)} does not fit a register "
            f"of {register.m} qubits (need machine part + target)")
    machine_gaps = register.gaps[:-1]
    target_gap = register.gaps[-1]
    vg = virtual_gap(bits, machine_gaps)
    mismatch = abs(target_gap - abs(vg))
    if mismatch > RESONANCE_TOL:
        raise ResonanceError(
            f"target gap {target_gap} is off resonance with the virtual gap "
            f"|{vg}| by {mismatch:.3e}")
    # Orient the labels so the coupled pair is degenerate: the level with
    # the lower machine-part energy carries the excited target qubit.
    # Qubit 0 is the most significant bit of a basis index.
    lower = bits if vg <= 0 else flip(bits)
    shape = (2,) * register.m
    return (int(np.ravel_multi_index(lower + (1,), shape)),
            int(np.ravel_multi_index(flip(lower) + (0,), shape)))


def build_interaction_hamiltonian(h: Sequence[int], chi: float,
                                  register: QubitRegister) -> np.ndarray:
    """Rank-2 Hermitian coupling chi (|a><b| + |b><a|) between the virtual
    qubit and the target qubit, with (a, b) from `coupled_levels`."""
    ia, ib = coupled_levels(h, register)
    hint = np.zeros((register.dim, register.dim), dtype=complex)
    hint[ia, ib] = chi
    hint[ib, ia] = chi
    return hint
