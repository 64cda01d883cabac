"""The stochastic response channel, and error/dissipation averages.

Every truth-table consumer evaluates the 2^n rows of `Encoding.rows` and
decodes them with `decode_array`; both live in `designer` with the encoding
(and stay importable from here).  The machine's response fluctuates as a
Gaussian of width ``spread`` around the steady-state value, which gives
closed-form conditional output probabilities; a seeded Monte Carlo
estimator doubles as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import ConfigError, StructuralError
from .designer import (BANDS, DesignConfig, Encoding, TruthTable, decode,
                       decode_array, encode, gate_table, preset)
from .dynamics import accumulated_dissipation, evolve_quasi_static
from .network import NetworkSpec, eval_layers
from .neuron import NeuronSpec, inverter, steady_response

__all__ = [
    "ChannelStats",
    "TradeoffPoint",
    "machine_arity",
    "machine_response",
    "conditional_outputs",
    "mc_conditional_outputs",
    "average_error",
    "dissipation",
    "average_dissipation",
    "tradeoff_machine",
    "tradeoff_sweep",
    "gaussian_band_probs",
]

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


def _phi(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def gaussian_band_probs(mean: float, spread: float, enc: Encoding):
    """(p0, p1, p_invalid) for a Gaussian response of the given mean and width."""
    if not (spread > 0.0):
        raise ConfigError("channel spread must be positive")
    p0 = _phi((enc.low_edge - mean) / spread)
    p1 = _phi((mean - enc.high_edge) / spread)
    return p0, p1, max(0.0, 1.0 - p0 - p1)


def conditional_outputs(machine, enc: Encoding, spread: float) -> ChannelStats:
    """Closed-form Gaussian channel table over all 2^n logical inputs."""
    means = machine_response(machine, enc.rows(machine_arity(machine)))
    table = np.array([gaussian_band_probs(m, spread, enc) for m in means.tolist()])
    return ChannelStats(p_y_given_x=table, means=means)


def mc_conditional_outputs(machine, enc: Encoding, spread: float,
                           n_samples: int, seed: int) -> ChannelStats:
    """Monte Carlo estimate of the channel table (independent sampling oracle)."""
    if not (spread > 0.0):
        raise ConfigError("channel spread must be positive")
    rng = np.random.default_rng(seed)
    means = machine_response(machine, enc.rows(machine_arity(machine)))
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


def dissipation(spec: NeuronSpec, rows, enc: Encoding, tau: float) -> np.ndarray:
    """Entropy produced over a computation of length tau, per input row, each
    run started at the rails' midpoint."""
    if tau < 0:
        raise ConfigError("tau must be non-negative")
    start = 0.5 * (enc.beta_hot + enc.beta_cold)
    return np.array([accumulated_dissipation(evolve_quasi_static(spec, row, start, tau))
                     for row in rows], dtype=float)


def average_dissipation(spec: NeuronSpec, enc: Encoding, tau: float) -> float:
    """`dissipation` averaged over uniformly distributed logical inputs."""
    n_rows = 1 << spec.n
    total = 0.0
    for sigma in dissipation(spec, enc.rows(spec.n), enc, tau).tolist():
        total += (1.0 / n_rows) * sigma
    return float(total)


@dataclass(frozen=True)
class TradeoffPoint:
    knob: float
    avg_sigma: float
    avg_xi: float
    avg_invalid: float


def tradeoff_machine(gate: str, knob: str, value: float,
                     config: DesignConfig) -> NeuronSpec:
    """The machine at one knob value: the inverter with input gap eps_1 = value
    (knob 'eps1'), or the gate's preset at steepness alpha = value."""
    if knob == "eps1":
        return inverter(eps_input=float(value), beta0=0.5, eps_z=config.eps_z,
                        **config.physical())
    return preset(gate, replace(config, alpha=float(value)))


def tradeoff_sweep(gate: str, knob: str, grid: Sequence[float], enc: Encoding,
                   spread: float, tau: float,
                   config: DesignConfig | None = None) -> list[TradeoffPoint]:
    """Dissipation-vs-error curve along a steepness grid (eps1 or alpha)."""
    config = config or DesignConfig()
    table = gate_table(gate)
    if knob not in ("eps1", "alpha"):
        raise ConfigError("knob must be 'eps1' or 'alpha'")
    if knob == "eps1" and gate.upper() != "NOT":
        raise ConfigError("the eps1 knob applies to the NOT gate only")
    points = []
    for value in grid:
        machine = tradeoff_machine(gate, knob, value, config)
        stats = conditional_outputs(machine, enc, spread)
        xi, invalid = average_error(stats, table)
        sigma = average_dissipation(machine, enc, tau)
        points.append(TradeoffPoint(knob=float(value), avg_sigma=sigma,
                                    avg_xi=xi, avg_invalid=invalid))
    return points
