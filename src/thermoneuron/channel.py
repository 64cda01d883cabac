"""The stochastic response channel, and error/dissipation averages.

Every truth-table consumer evaluates the 2^n rows of `logic_rows` on the
machine's rails and decodes them on the same rails; both rules live in
`designer` with the encoding.  The machine's response fluctuates as a
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
from .designer import (DesignConfig, Encoding, TruthTable, _check_count, decode_array,
                       gate_table, logic_rows, preset)
from .dynamics import _check_run, evolve_quasi_static
from .network import NetworkSpec, eval_layers
from .neuron import NeuronSpec, inverter, steady_response
from .virtual import virtual_temperature

# The steepness a tradeoff sweeps: the inverter's input gap, or a preset's alpha.
TRADEOFF_KNOBS = ("eps1", "alpha")


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


def gaussian_band_probs(mean: float, spread: float, enc: Encoding, machine):
    """(p0, p1, p_invalid) of a Gaussian response decoded on the machine's rails."""
    if not (spread > 0.0):
        raise ConfigError("channel spread must be positive")
    low, high = enc.edges(machine)
    p0 = _phi((low - mean) / spread)
    p1 = _phi((mean - high) / spread)
    return p0, p1, max(0.0, 1.0 - p0 - p1)


def conditional_outputs(machine, enc: Encoding, spread: float) -> ChannelStats:
    """Closed-form Gaussian channel table over all 2^n logical inputs."""
    means = machine_response(machine, logic_rows(machine))
    table = np.array([gaussian_band_probs(m, spread, enc, machine) for m in means.tolist()])
    return ChannelStats(p_y_given_x=table, means=means)


def mc_conditional_outputs(machine, enc: Encoding, spread: float,
                           n_samples: int, seed: int) -> ChannelStats:
    """Monte Carlo estimate of the channel table (independent sampling oracle)."""
    if not (spread > 0.0):
        raise ConfigError("channel spread must be positive")
    _check_count("n_samples", n_samples, 1)
    _check_count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    means = machine_response(machine, logic_rows(machine))
    table = np.empty((len(means), 3))
    for i, m in enumerate(means):
        bits = decode_array(rng.normal(m, spread, n_samples), enc, machine)
        table[i] = [np.mean(bits == b) for b in (0, 1, -1)]
    return ChannelStats(p_y_given_x=table, means=means)


def _uniform_mean(values) -> float:
    """The mean under uniform inputs: a sum of (1/n) * value in row order (a
    plain loop; `sum` rounds differently on Python 3.12 and later)."""
    weight, total = 1.0 / len(values), 0.0
    for value in values:
        total += weight * value
    return float(total)


def average_error(stats: ChannelStats, table: TruthTable):
    """(avg wrong-bit probability, avg invalid probability) over uniform inputs.

    Only valid outputs count as errors: the error at input x is the
    probability of the bit 1 - R(x); invalid outcomes are tallied apart.
    """
    if stats.p_y_given_x.shape[0] != 1 << table.n:
        raise StructuralError("channel table and truth table arity mismatch")
    p = stats.p_y_given_x
    return (_uniform_mean([p[idx, 1 - out] for idx, out in enumerate(table.outputs)]),
            _uniform_mean(p[:, 2].tolist()))


def dissipation(spec: NeuronSpec, rows, tau: float) -> np.ndarray:
    """Entropy produced over a computation of length tau, per input row, each
    run started at the midpoint of the machine's rails.  A run reads its
    inputs only through beta_v, so rows whose beta_v has the same bits share
    one run."""
    start = 0.5 * (spec.beta_hot + spec.beta_cold)
    rows = [_check_run(spec, row, start, tau) for row in rows]
    keys = [np.float64(virtual_temperature(spec.h, (spec.beta0,) + row, spec.eps,
                                           spec.eps_z)).tobytes() for row in rows]
    runs = {key: evolve_quasi_static(spec, row, start, tau).sigma[-1]
            for key, row in dict(zip(keys, rows)).items()}
    return np.array([runs[key] for key in keys], dtype=float)


def average_dissipation(spec: NeuronSpec, tau: float) -> float:
    """`dissipation` averaged over uniformly distributed logical inputs."""
    return _uniform_mean(dissipation(spec, logic_rows(spec), tau).tolist())


@dataclass(frozen=True)
class TradeoffPoint:
    knob: float
    avg_sigma: float
    avg_xi: float
    avg_invalid: float


def _check_knob(gate: str, knob: str) -> None:
    if knob not in TRADEOFF_KNOBS:
        raise ConfigError("knob must be 'eps1' or 'alpha'")
    if knob == "eps1" and gate.upper() != "NOT":
        raise ConfigError("the eps1 knob applies to the NOT gate only")


def tradeoff_machine(gate: str, knob: str, value: float,
                     config: DesignConfig) -> NeuronSpec:
    """The machine at one knob value: the inverter with input gap eps_1 = value
    (knob 'eps1', NOT only), or the gate's preset at steepness alpha = value."""
    _check_knob(gate, knob)
    if knob == "eps1":
        return inverter(eps_input=float(value), eps_z=config.eps_z, mu=config.mu)
    return preset(gate, replace(config, alpha=float(value)))


def tradeoff_sweep(gate: str, knob: str, grid: Sequence[float], enc: Encoding,
                   spread: float, tau: float,
                   config: DesignConfig | None = None) -> list[TradeoffPoint]:
    """Dissipation-vs-error curve along a steepness grid (eps1 or alpha)."""
    config = config or DesignConfig()
    table = gate_table(gate)
    _check_knob(gate, knob)   # before the loop, which an empty grid skips
    points = []
    for value in grid:
        machine = tradeoff_machine(gate, knob, value, config)
        stats = conditional_outputs(machine, enc, spread)
        xi, invalid = average_error(stats, table)
        sigma = average_dissipation(machine, tau)
        points.append(TradeoffPoint(knob=float(value), avg_sigma=sigma,
                                    avg_xi=xi, avg_invalid=invalid))
    return points
