"""Steady-state model of one thermodynamic neuron.

A neuron is a collector (machine-part qubits C_0..C_n plus a target qubit
C_z) together with a modulator (one auxiliary qubit against a reference
bath).  The collector drags the target qubit toward the virtual
temperature beta_v, a signed linear combination of the bath temperatures;
the modulator confines the output reservoir's temperature to the logic
rails [beta_hot, beta_cold] and supplies the non-linearity.  In the
steady-state regime the output temperature is

    beta_z_inf = (1/eps_z) * log(1/Q(beta_v) - 1),
    Q(beta_v)  = g_z(beta_hot) g_z(beta_v) + g_z(beta_cold) (1 - g_z(beta_v)),

with g_z(b) the excited Fermi population at inverse temperature b and gap
eps_z.  For small eps_z this is a sigmoid in eps_z * beta_v.

The exact characteristic takes batches: `steady_response` evaluates input
rows (N, n) in one array pass, and `steady_output` is a batch of one.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import CalibrationError, ConfigError, SolverError, StructuralError
from .quantum import _distinct, _libm, fermi_population
from .virtual import (RESONANCE_TOL, flip, virtual_gap, virtual_temperature,
                      weighted_bias)

RATE_SEPARATION = 100.0
CALIBRATION_TOL = 1e-10
SLOPE_STEP = 1e-6   # `transfer_slope` differences the curve at beta1 +- SLOPE_STEP


@dataclass(frozen=True)
class ModulatorCalibration:
    """Calibrated modulator parameters confining the output range to the rails."""

    delta: float
    beta_r: float
    mu_prime: float


def calibrate_modulator(beta_hot: float, beta_cold: float, eps_z: float,
                        mu: float) -> ModulatorCalibration:
    """Choose (delta, beta_r, mu_prime) so the output range is exactly the rails.

    delta = g_z(beta_hot) - g_z(beta_cold) and g_z(beta_r) = g_z(beta_cold)/(1-delta);
    mu_prime follows from delta = mu / (mu + mu_prime).
    """
    if not (beta_hot < beta_cold):
        raise CalibrationError("rails must satisfy beta_hot < beta_cold")
    if not (eps_z > 0.0):
        raise CalibrationError("target gap eps_z must be positive")
    if not (mu > 0.0):
        raise CalibrationError("collector-to-reservoir rate mu must be positive")
    g_hot = fermi_population(beta_hot * eps_z)
    g_cold = fermi_population(beta_cold * eps_z)
    delta = g_hot - g_cold
    if delta <= 1e-12:
        raise CalibrationError(
            f"calibration infeasible: delta = {delta:.3e} (rails too close or "
            "eps_z too small)")
    if delta < 1e-6:
        warnings.warn(f"modulator coupling nearly vanishes (delta = {delta:.3e})",
                      stacklevel=2)
    try:
        arg = (1.0 - delta) * math.exp(beta_cold * eps_z) - delta
    except OverflowError:
        raise CalibrationError("calibration overflow: beta_cold * eps_z too large")
    if arg <= 0.0:
        raise CalibrationError(f"calibration infeasible: log argument {arg:.3e} <= 0")
    beta_r = math.log(arg) / eps_z
    mu_prime = mu * (1.0 - delta) / delta
    resid = abs(fermi_population(beta_r * eps_z) * (1.0 - delta) - g_cold)
    if resid > 1e-12:
        raise CalibrationError(f"calibration self-check failed (residual {resid:.3e})")
    return ModulatorCalibration(delta=delta, beta_r=beta_r, mu_prime=mu_prime)


@dataclass(frozen=True)
class NeuronSpec:
    """Full parameterization of one thermodynamic neuron.

    ``eps`` are the machine-part gaps (eps_0 reference, eps_1..eps_n inputs),
    ``eps_z`` is the shared gap of the target qubit C_z and the modulator
    qubit, oriented so that sum_i (-1)^(h_i) eps_i = +eps_z (resonance).
    Every scalar is finite; mu and mu_prime are >= 0, chi, gamma, eps_z and
    capacity > 0 (with chi or gamma at 0 the machine is decoupled from its
    baths and the closed form does not hold), and the rails satisfy
    0 <= beta_hot < beta_cold.
    """

    eps: tuple[float, ...]
    h: tuple[int, ...]
    beta0: float
    eps_z: float
    beta_r: float
    mu_prime: float
    chi: float = 1.0
    gamma: float = 1.0
    mu: float = 1e-4
    beta_hot: float = 0.0
    beta_cold: float = 1.0
    capacity: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "eps", tuple(float(e) for e in self.eps))
        object.__setattr__(self, "h", tuple(int(b) for b in self.h))
        if len(self.eps) != len(self.h):
            raise StructuralError("eps and h must have equal lengths")
        if len(self.eps) < 2:
            raise StructuralError("a neuron needs a reference qubit and >= 1 input")
        if not all(math.isfinite(e) for e in self.eps):
            raise StructuralError("qubit gaps eps must be finite")
        if any(b not in (0, 1) for b in self.h):
            raise StructuralError("h entries must be bits")
        for name in (f.name for f in fields(self) if f.type == "float"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise StructuralError(f"{name} must be finite, got {value!r}")
            if value < 0 and name in ("chi", "gamma", "mu", "mu_prime"):
                raise StructuralError(f"{name} must be non-negative, got {value!r}")
            if value <= 0 and name in ("chi", "gamma", "eps_z", "capacity"):
                raise StructuralError(f"{name} must be positive, got {value!r}")
        if not (0.0 <= self.beta_hot < self.beta_cold):
            raise StructuralError("rails must satisfy 0 <= beta_hot < beta_cold")
        signed = -virtual_gap(self.h, self.eps)
        if abs(signed - self.eps_z) > RESONANCE_TOL:
            raise StructuralError(
                f"off-resonant design: sum_i (-1)^h_i eps_i = {signed} but "
                f"eps_z = {self.eps_z}")
        slow = max(self.mu, self.mu_prime)
        if slow > 0 and self.gamma / slow < RATE_SEPARATION:
            warnings.warn(
                f"weak time-scale separation: gamma/max(mu, mu') = "
                f"{self.gamma / slow:.3g} < {RATE_SEPARATION:.0f}",
                stacklevel=3)   # past the dataclass __init__, at the builder

    @property
    def n(self) -> int:
        """Number of logic inputs."""
        return len(self.eps) - 1

    @property
    def delta(self) -> float:
        return self.mu / (self.mu + self.mu_prime)

    def g_z(self, beta):
        """Excited population of a gap-eps_z qubit thermal at beta (float or array)."""
        return fermi_population(beta * self.eps_z)

    def is_calibrated(self) -> bool:
        if self.mu <= 0 or self.mu_prime <= 0:
            return False
        target = self.g_z(self.beta_hot) - self.g_z(self.beta_cold)
        if abs(self.delta - target) > CALIBRATION_TOL:
            return False
        return abs(self.g_z(self.beta_r) * (1.0 - self.delta)
                   - self.g_z(self.beta_cold)) <= CALIBRATION_TOL

    def require_calibrated(self) -> None:
        if not self.is_calibrated():
            raise CalibrationError(
                "neuron spec is not calibrated; build it via build_neuron() or "
                "recalibrate the modulator")


@dataclass(frozen=True)
class TransferPoint:
    """One evaluated point of the transfer characteristic."""

    inputs: tuple[float, ...]
    beta_v: float
    beta_z_inf: float


def build_neuron(eps: Sequence[float], h: Sequence[int], beta0: float,
                 eps_z: float, *, mu: float = NeuronSpec.mu) -> NeuronSpec:
    """Assemble a calibrated NeuronSpec; flips the level labels if needed.

    ``eps_z`` must equal |sum_i (-1)^(h_i) eps_i| to within RESONANCE_TOL.
    The modulator is calibrated at rate ``mu`` to NeuronSpec's rails; chi,
    gamma and the capacity C are NeuronSpec's defaults too.
    """
    h = tuple(int(b) for b in h)
    if virtual_gap(h, eps) > 0:
        h = flip(h)
    cal = calibrate_modulator(NeuronSpec.beta_hot, NeuronSpec.beta_cold, eps_z, mu)
    return NeuronSpec(eps=tuple(float(e) for e in eps), h=h, beta0=beta0,
                      eps_z=eps_z, beta_r=cal.beta_r, mu_prime=cal.mu_prime, mu=mu)


def inverter(eps_input: float = 20.0, eps_z: float = 0.1, *,
             mu: float = NeuronSpec.mu) -> NeuronSpec:
    """The canonical single-input inverting neuron.

    Reference gap eps_0 = eps_input + eps_z, input gap eps_1 = eps_input,
    h = (0, 1) and reference temperature beta_0 = 0.5; the virtual temperature is
    beta_v = (0.5 * eps_0 - beta_1 * eps_1) / eps_z.
    """
    if not eps_input > 0:
        raise ConfigError(f"input gap eps_input must be positive, got {eps_input!r}")
    eps_0 = eps_input + eps_z
    if abs((eps_0 - eps_input) - eps_z) > RESONANCE_TOL:
        raise ConfigError(f"input gap {eps_input!r} is too large to carry eps_z = "
                          f"{eps_z!r}: the reference gap eps_input + eps_z rounds to {eps_0!r}")
    return build_neuron((eps_0, eps_input), (0, 1), 0.5, eps_z, mu=mu)


def steady_from_virtual(spec: NeuronSpec, beta_v):
    """Steady output temperature for a virtual temperature (float or array).

    An array of two or more values is evaluated once per distinct float64 bit
    pattern (-0.0 apart from 0.0) and gathered back: it equals scalar evaluation."""
    array = isinstance(beta_v, np.ndarray) and beta_v.size > 1
    values, inverse = _distinct(beta_v) if array else (beta_v, None)
    g_v = spec.g_z(values)
    g_hot = spec.g_z(spec.beta_hot)
    g_cold = spec.g_z(spec.beta_cold)
    q = g_cold + (g_hot - g_cold) * g_v
    beta_z = (_libm(math.log1p, -q) - _libm(math.log, q)) / spec.eps_z
    return beta_z[inverse].reshape(beta_v.shape) if array else beta_z


def steady_response(spec: NeuronSpec, rows) -> tuple[np.ndarray, np.ndarray]:
    """(beta_v, beta_z_inf) of a calibrated neuron for input rows of shape (N, n)."""
    spec.require_calibrated()
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != spec.n:
        raise StructuralError(f"expected {spec.n} inputs, got rows {rows.shape}")
    betas = (spec.beta0,) + tuple(rows.T)
    with np.errstate(over="ignore", invalid="ignore"):   # beta_v = +-inf is valid
        beta_v = virtual_temperature(spec.h, betas, spec.eps, spec.eps_z)
    if np.isnan(beta_v).any() and not np.isnan(rows).any():
        raise ConfigError("input temperatures overflow: beta_v is inf - inf")
    beta_z = steady_from_virtual(spec, beta_v)
    lo, hi = spec.beta_hot - 1e-9, spec.beta_cold + 1e-9
    outside = ~((lo <= beta_z) & (beta_z <= hi))
    if outside.any():
        raise SolverError(
            f"range confinement violated: beta_z = {beta_z[outside][0]} outside "
            f"[{spec.beta_hot}, {spec.beta_cold}]")
    return beta_v, beta_z


def steady_output(spec: NeuronSpec, inputs: Sequence[float]) -> TransferPoint:
    """Exact steady-state response of a calibrated neuron to input temperatures."""
    inputs = tuple(float(b) for b in inputs)
    (beta_v,), (beta_z,) = steady_response(spec, [inputs])
    return TransferPoint(inputs=inputs, beta_v=float(beta_v), beta_z_inf=float(beta_z))


def sigmoid_approx(spec: NeuronSpec, inputs: Sequence[float]) -> float:
    """Small-eps_z sigmoid limit of the transfer characteristic.

    Returns sigma(eps_z * beta_v) scaled onto the rails, with
    sigma(u) = 1/(1 + e^-u); deviates from `steady_output` by O(eps_z).
    """
    inputs = tuple(float(b) for b in inputs)
    if len(inputs) != spec.n:
        raise StructuralError(f"expected {spec.n} inputs, got {len(inputs)}")
    betas = (spec.beta0,) + inputs
    u = weighted_bias(spec.h, betas, spec.eps)
    sigma = fermi_population(-u)
    return spec.beta_hot + sigma * (spec.beta_cold - spec.beta_hot)


def sigmoid_approx_input_form(spec: NeuronSpec, beta_1: float) -> float:
    """Single-input sigmoid limit written in the input temperature directly.

    Uses the argument (eps_in + eps_z)(beta0 - beta_1), which differs from
    eps_z * beta_v by beta_1 * eps_z; the two forms agree to O(eps_z), but
    their deviations from the exact curve scale differently (O(eps_z) here,
    O(eps_z^2) for the virtual-temperature form).
    """
    if spec.n != 1:
        raise StructuralError("input-form sigmoid is defined for single-input "
                              "neurons")
    u = (spec.eps[1] + spec.eps_z) * (spec.beta0 - beta_1)
    sigma = fermi_population(-u)
    return spec.beta_hot + sigma * (spec.beta_cold - spec.beta_hot)


def _log_cosh(x: float) -> float:
    ax = abs(x)
    return ax + math.log1p(math.exp(-2.0 * ax)) - math.log(2.0)


def inflection_virtual_offset(eps_z: float, beta_hot: float,
                              beta_cold: float) -> float:
    """Value of eps_z * beta_v at the inflection of the transfer curve.

    Exact: log[cosh(beta_cold eps_z / 2) / cosh(beta_hot eps_z / 2)].
    """
    return _log_cosh(beta_cold * eps_z / 2.0) - _log_cosh(beta_hot * eps_z / 2.0)


def threshold_point(spec: NeuronSpec) -> float:
    """Input temperature at which the single-input transfer curve inflects.

    beta_1* = beta0 (1 + eps_z/eps_in) - x*/eps_in with x* from
    `inflection_virtual_offset`; matches the numerical root of the second
    derivative exactly.
    """
    if spec.n != 1:
        raise StructuralError("threshold_point is defined for single-input neurons")
    eps_in = spec.eps[1]
    x_star = inflection_virtual_offset(spec.eps_z, spec.beta_hot, spec.beta_cold)
    return spec.beta0 * (1.0 + spec.eps_z / eps_in) - x_star / eps_in


def slope_at_threshold(spec: NeuronSpec) -> float:
    """Slope of the single-input transfer curve at the threshold point.

    Exact closed form -(eps_in/eps_z) tanh[(beta_cold - beta_hot) eps_z / 4];
    for rails (0, 1) this is -(eps_in/eps_z) tanh(eps_z/4), approaching
    -eps_in/4 as eps_z -> 0.
    """
    if spec.n != 1:
        raise StructuralError("slope_at_threshold is defined for single-input neurons")
    eps_in = spec.eps[1]
    return -(eps_in / spec.eps_z) * math.tanh(
        (spec.beta_cold - spec.beta_hot) * spec.eps_z / 4.0)


def transfer_slope(spec: NeuronSpec, beta1: float) -> float:
    """Central finite-difference slope of the single-input transfer curve."""
    if spec.n != 1:
        raise StructuralError("transfer_slope is defined for single-input neurons")
    _, (up, dn) = steady_response(spec, [[beta1 + SLOPE_STEP], [beta1 - SLOPE_STEP]])
    return float((up - dn) / (2.0 * SLOPE_STEP))
