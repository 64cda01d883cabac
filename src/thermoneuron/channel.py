"""Logical encoding, the stochastic response channel, and error/dissipation averages.

Bits enter as bath temperatures (0 -> beta_hot, 1 -> beta_cold) and leave
through a decoder with a dead band of half-width delta; outputs that land
in neither band are reported as invalid (None).  The machine's response
fluctuates as a Gaussian of width ``spread`` around the steady-state
value, which gives closed-form conditional output probabilities; a seeded
Monte Carlo estimator doubles as an independent oracle.

Two band conventions are supported.  The literal multiplicative rule
(y = 0 iff beta_z <= (1+delta) beta_hot) degenerates to a single point
when beta_hot = 0, so gate verification uses the additive rule
(y = 0 iff beta_z <= beta_hot + delta (beta_cold - beta_hot)) instead;
both are selectable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import ConfigError, StructuralError
from .designer import DesignConfig, TruthTable, gate_table, preset
from .dynamics import accumulated_dissipation, evolve_quasi_static
from .network import NetworkSpec, eval_layers
from .neuron import NeuronSpec, inverter, steady_response

__all__ = [
    "Encoding",
    "ChannelStats",
    "TradeoffPoint",
    "encode",
    "decode",
    "machine_arity",
    "machine_response",
    "conditional_outputs",
    "mc_conditional_outputs",
    "average_error",
    "average_dissipation",
    "tradeoff_sweep",
    "gaussian_band_probs",
]

BANDS = ("multiplicative", "additive")


@dataclass(frozen=True)
class Encoding:
    """Logic rails plus the decoding tolerance delta."""

    beta_hot: float = 0.0
    beta_cold: float = 1.0
    delta: float = 0.1
    band: str = "multiplicative"

    def __post_init__(self):
        if not (self.beta_hot < self.beta_cold):
            raise ConfigError("rails must satisfy beta_hot < beta_cold")
        if not (0.0 <= self.delta < 1.0):
            raise ConfigError("delta must lie in [0, 1)")
        if self.band not in BANDS:
            raise ConfigError(f"band must be one of {BANDS}")
        if not (self.low_edge < self.high_edge):
            raise ConfigError(
                f"decoding bands overlap: low edge {self.low_edge} >= "
                f"high edge {self.high_edge}")

    @property
    def low_edge(self) -> float:
        if self.band == "multiplicative":
            return (1.0 + self.delta) * self.beta_hot
        return self.beta_hot + self.delta * (self.beta_cold - self.beta_hot)

    @property
    def high_edge(self) -> float:
        if self.band == "multiplicative":
            return (1.0 - self.delta) * self.beta_cold
        return self.beta_cold - self.delta * (self.beta_cold - self.beta_hot)


def encode(x: int, enc: Encoding) -> float:
    """Deterministic point encoding: 0 -> beta_hot, 1 -> beta_cold."""
    if x == 0:
        return enc.beta_hot
    if x == 1:
        return enc.beta_cold
    raise ConfigError(f"logical input must be 0 or 1, got {x!r}")


def decode(beta_z: float, enc: Encoding):
    """0, 1, or None (invalid) depending on which band beta_z falls into."""
    if beta_z <= enc.low_edge:
        return 0
    if beta_z >= enc.high_edge:
        return 1
    return None


def machine_arity(machine) -> int:
    if isinstance(machine, NetworkSpec):
        return machine.n_inputs
    if isinstance(machine, NeuronSpec):
        return machine.n
    raise StructuralError(f"not a machine: {type(machine).__name__}")


def machine_response(machine, rows) -> np.ndarray:
    """Steady output temperature of a neuron or a layered network, per input row."""
    if isinstance(machine, NetworkSpec):
        return eval_layers(machine, rows)[-1][:, -1]
    if isinstance(machine, NeuronSpec):
        return steady_response(machine, rows)[1]
    raise StructuralError(f"not a machine: {type(machine).__name__}")


@dataclass
class ChannelStats:
    """Conditional output table p(y | x) with y in (0, 1, invalid), per input row."""

    p_y_given_x: np.ndarray
    means: np.ndarray
    avg_error: float | None = None
    avg_invalid: float | None = None
    avg_dissipation: float | None = None


def _phi(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def gaussian_band_probs(mean: float, spread: float, enc: Encoding):
    """(p0, p1, p_invalid) for a Gaussian response of the given mean and width."""
    if not (spread > 0.0):
        raise ConfigError("channel spread must be positive")
    p0 = _phi((enc.low_edge - mean) / spread)
    p1 = _phi((mean - enc.high_edge) / spread)
    return p0, p1, max(0.0, 1.0 - p0 - p1)


def _row_means(machine, enc: Encoding) -> np.ndarray:
    """Steady outputs for the 2^n encoded logical inputs, in truth-table order."""
    rails = (enc.beta_hot, enc.beta_cold)
    return machine_response(
        machine, list(itertools.product(rails, repeat=machine_arity(machine))))


def conditional_outputs(machine, enc: Encoding, spread: float) -> ChannelStats:
    """Closed-form Gaussian channel table over all 2^n logical inputs."""
    means = _row_means(machine, enc)
    table = np.array([gaussian_band_probs(m, spread, enc) for m in means.tolist()])
    return ChannelStats(p_y_given_x=table, means=means)


def mc_conditional_outputs(machine, enc: Encoding, spread: float,
                           n_samples: int, seed: int) -> ChannelStats:
    """Monte Carlo estimate of the channel table (independent sampling oracle)."""
    if not (spread > 0.0):
        raise ConfigError("channel spread must be positive")
    rng = np.random.default_rng(seed)
    means = _row_means(machine, enc)
    table = np.empty((len(means), 3))
    for i, m in enumerate(means):
        samples = rng.normal(m, spread, n_samples)
        p0 = float(np.mean(samples <= enc.low_edge))
        p1 = float(np.mean(samples >= enc.high_edge))
        table[i] = (p0, p1, 1.0 - p0 - p1)
    return ChannelStats(p_y_given_x=table, means=means)


def _uniform(n_rows: int) -> np.ndarray:
    return np.full(n_rows, 1.0 / n_rows)


def average_error(stats: ChannelStats, table: TruthTable,
                  input_dist: Sequence[float] | None = None):
    """(avg wrong-bit probability, avg invalid probability) over the input law.

    Only valid outputs count as errors: the error at input x is the
    probability of the bit 1 - R(x); invalid outcomes are tallied apart.
    """
    n_rows = 1 << table.n
    if stats.p_y_given_x.shape[0] != n_rows:
        raise StructuralError("channel table and truth table arity mismatch")
    p_x = _uniform(n_rows) if input_dist is None else np.asarray(input_dist, float)
    if len(p_x) != n_rows or abs(p_x.sum() - 1.0) > 1e-9 or np.any(p_x < 0):
        raise ConfigError("input distribution must be a probability vector")
    xi = 0.0
    invalid = 0.0
    for idx, out in enumerate(table.outputs):
        xi += p_x[idx] * stats.p_y_given_x[idx, 1 - out]
        invalid += p_x[idx] * stats.p_y_given_x[idx, 2]
    return float(xi), float(invalid)


def average_dissipation(spec: NeuronSpec, enc: Encoding, tau: float,
                        input_dist: Sequence[float] | None = None,
                        beta_z0: float | None = None,
                        per_decade: int = 200) -> float:
    """Input-averaged entropy production over a computation of length tau."""
    if tau < 0:
        raise ConfigError("tau must be non-negative")
    n_rows = 1 << spec.n
    p_x = _uniform(n_rows) if input_dist is None else np.asarray(input_dist, float)
    if len(p_x) != n_rows:
        raise ConfigError("input distribution length mismatch")
    start = 0.5 * (enc.beta_hot + enc.beta_cold) if beta_z0 is None else beta_z0
    total = 0.0
    for idx, bits in enumerate(itertools.product((0, 1), repeat=spec.n)):
        if p_x[idx] == 0.0 or tau == 0.0:
            continue
        betas = [encode(b, enc) for b in bits]
        traj = evolve_quasi_static(spec, betas, start, tau, per_decade=per_decade)
        total += p_x[idx] * accumulated_dissipation(traj)
    return float(total)


@dataclass(frozen=True)
class TradeoffPoint:
    knob: float
    avg_sigma: float
    avg_xi: float
    avg_invalid: float


def tradeoff_sweep(gate: str, knob: str, grid: Sequence[float], enc: Encoding,
                   spread: float, tau: float,
                   config: DesignConfig | None = None,
                   beta_z0: float | None = None) -> list[TradeoffPoint]:
    """Dissipation-vs-error curve along a steepness grid (eps1 or alpha)."""
    config = config or DesignConfig()
    table = gate_table(gate)
    if knob not in ("eps1", "alpha"):
        raise ConfigError("knob must be 'eps1' or 'alpha'")
    if knob == "eps1" and gate.upper() != "NOT":
        raise ConfigError("the eps1 knob applies to the NOT gate only")
    points = []
    for value in grid:
        if knob == "eps1":
            machine = inverter(eps_input=float(value), beta0=0.5,
                               eps_z=config.eps_z, **config.physical())
        else:
            machine = preset(gate, replace(config, alpha=float(value)))
        stats = conditional_outputs(machine, enc, spread)
        xi, invalid = average_error(stats, table)
        sigma = average_dissipation(machine, enc, tau, beta_z0=beta_z0)
        points.append(TradeoffPoint(knob=float(value), avg_sigma=sigma,
                                    avg_xi=xi, avg_invalid=invalid))
    return points
