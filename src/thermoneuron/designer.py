"""Compile linearly-separable truth tables into thermodynamic neurons.

The pipeline mirrors a perceptron: train (or fix by hand) a separating
weight vector w = (w_0, ..., w_n), then map weights to machine
parameters.  Signs of the weights pick the interaction vector, magnitudes
(scaled by the steepness knob alpha) become qubit gaps, and the bias
weight sets the reference bath temperature.  The construction makes

    eps_z_machine * beta_v = alpha * (w_0 + sum_k w_k beta_k)

an algebraic identity, so the machine's virtual temperature is exactly
the perceptron's weighted sum.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import CalibrationError, ConfigError, DesignError, NotSeparableError
from .neuron import NeuronSpec, build_neuron, steady_response
from .virtual import virtual_gap

# Fixed settings: gradient descent in `train_perceptron`, the random input rows
# of `perceptron_identity_residual`, and the steepness `search_alpha` stops at.
LEARNING_RATE, EPOCHS = 0.5, 20_000
IDENTITY_TRIALS, IDENTITY_SEED = 8, 1234
ALPHA_MAX = 4096.0


BANDS = ("multiplicative", "additive")


def _check_count(name: str, value, least: int) -> None:
    """Refuse a count or seed that is not an integer >= least."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ConfigError(f"{name} must be at least {least}, got {value!r}")


@dataclass(frozen=True)
class Encoding:
    """The decoding rule: tolerance delta and its band.  Bits enter as the
    machine's rails (0 -> beta_hot, 1 -> beta_cold) and leave through bands of
    half-width delta: multiplicative (y = 0 iff beta_z <= (1+delta) beta_hot, a
    point when beta_hot = 0) or additive (y = 0 iff beta_z <= beta_hot + delta
    (beta_cold - beta_hot)), which gate verification uses; else invalid."""

    delta: float = 0.1
    band: str = "multiplicative"

    def __post_init__(self):
        if not (0.0 <= self.delta < 1.0):
            raise ConfigError("delta must lie in [0, 1)")
        if self.band not in BANDS:
            raise ConfigError(f"band must be one of {BANDS}")

    def edges(self, machine) -> tuple[float, float]:
        """(low, high) on the machine's rails; ConfigError if the bands overlap."""
        hot, cold = machine.beta_hot, machine.beta_cold
        if self.band == "multiplicative":
            low, high = (1.0 + self.delta) * hot, (1.0 - self.delta) * cold
        else:
            low, high = hot + self.delta * (cold - hot), cold - self.delta * (cold - hot)
        if not (low < high):
            raise ConfigError(f"decoding bands overlap: low edge {low} >= high edge {high}")
        return low, high


def logic_rows(machine) -> np.ndarray:
    """The machine's 2^n logical inputs on its rails, (2^n, n), in truth-table order."""
    rails = (machine.beta_hot, machine.beta_cold)
    return np.array(list(itertools.product(rails, repeat=machine.n)), dtype=float)


def encode(x: int, machine) -> float:
    """Deterministic point encoding: 0 -> beta_hot, 1 -> beta_cold."""
    if x == 0:
        return machine.beta_hot
    if x == 1:
        return machine.beta_cold
    raise ConfigError(f"logical input must be 0 or 1, got {x!r}")


def decode_array(beta_z, enc: Encoding, machine) -> np.ndarray:
    """The band rule elementwise: 0 at or below the low edge, 1 at or above
    the high edge, -1 (invalid) anywhere else, NaN included."""
    low, high = enc.edges(machine)
    beta_z = np.asarray(beta_z, dtype=float)
    return np.where(beta_z <= low, 0, np.where(beta_z >= high, 1, -1))


@dataclass(frozen=True)
class TruthTable:
    """Complete n-input boolean function; row index has x_1 as its MSB."""

    n: int
    outputs: tuple[int, ...]

    def __post_init__(self):
        _check_count("n", self.n, 1)
        if len(self.outputs) != 1 << self.n:
            raise ConfigError(
                f"truth table for {self.n} inputs needs {1 << self.n} rows, "
                f"got {len(self.outputs)}")
        if any(o not in (0, 1) for o in self.outputs):
            raise ConfigError("truth table outputs must be bits")
        object.__setattr__(self, "outputs", tuple(int(o) for o in self.outputs))

    @classmethod
    def from_text(cls, text: str) -> "TruthTable":
        """Parse lines of the form 'b1 b2 ... bn : r'.  The colon is optional;
        a line with one has at least one bit before it and one output after."""
        rows = {}
        n = None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            head, colon, tail = line.partition(":")
            if colon and (":" in tail or not head.split() or len(tail.split()) != 1):
                raise ConfigError(f"truth table line {lineno}: expected 'bits : output'")
            tokens = head.split() + tail.split()
            if len(tokens) < 2:
                raise ConfigError(f"truth table line {lineno}: need bits and an output")
            bad = next((t for t in tokens if t not in ("0", "1")), None)
            if bad is not None:
                raise ConfigError(f"truth table line {lineno}: entry {bad!r} is not 0 or 1")
            *bits, out = map(int, tokens)
            if n is None:
                n = len(bits)
            elif len(bits) != n:
                raise ConfigError(f"truth table line {lineno}: inconsistent arity")
            key = 0
            for b in bits:
                key = (key << 1) | b
            if key in rows:
                raise ConfigError(f"truth table line {lineno}: duplicate row")
            rows[key] = out
        if n is None:
            raise ConfigError("truth table is empty")
        if len(rows) != 1 << n:
            first = list(itertools.islice((k for k in range(1 << n) if k not in rows), 8))
            raise ConfigError(
                f"truth table incomplete: {len(rows)}/{1 << n} rows "
                f"({(1 << n) - len(rows)} missing, first indices {first})")
        return cls(n=n, outputs=tuple(rows[k] for k in range(1 << n)))

    def rows(self):
        """(bits, output) pairs in row order, x_1 varying slowest."""
        return zip(itertools.product((0, 1), repeat=self.n), self.outputs)


# Each named gate's outputs in row order (x_1 the most significant bit).
_GATES = {
    "NOT": TruthTable(1, (1, 0)),
    "NOR": TruthTable(2, (1, 0, 0, 0)),
    "OR": TruthTable(2, (0, 1, 1, 1)),
    "AND": TruthTable(2, (0, 0, 0, 1)),
    "NAND": TruthTable(2, (1, 1, 1, 0)),
    "XOR": TruthTable(2, (0, 1, 1, 0)),
    "MAJ3": TruthTable(3, (0, 0, 0, 1, 0, 1, 1, 1)),
}


def gate_table(name: str) -> TruthTable:
    """Truth table of a named gate (NOT, NOR, OR, AND, NAND, XOR, MAJ3)."""
    key = name.upper()
    if key not in _GATES:
        raise ConfigError(f"unknown gate '{name}'; choose from {sorted(_GATES)}")
    return _GATES[key]


@dataclass(frozen=True)
class DesignConfig:
    """Steepness, nominal target gap, training seed and the reservoir rate mu.
    A design's chi, gamma, capacity and rails are NeuronSpec's defaults."""

    alpha: float = 20.0
    eps_z: float = 0.1
    seed: int = 0
    mu: float = NeuronSpec.mu

    def __post_init__(self):
        for name in ("alpha", "eps_z", "mu"):
            value = getattr(self, name)
            if not (0.0 < value < math.inf):
                raise ConfigError(f"{name} must be positive and finite, got {value!r}")
        _check_count("seed", self.seed, 0)


# The rule a design must decode under: additive bands, delta = 0.1, on its rails.
DESIGN_ENCODING = Encoding(delta=0.1, band="additive")


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _design_matrix(table: TruthTable):
    x = np.array([bits for bits, _ in table.rows()], dtype=float)
    t = np.array(table.outputs, dtype=float)
    xb = np.hstack([np.ones((x.shape[0], 1)), x])
    return xb, t


def train_perceptron(table: TruthTable, config: DesignConfig) -> np.ndarray:
    """Cross-entropy gradient descent on a single sigmoid unit.

    Returns weights (w_0, ..., w_n) rescaled so the smallest row margin is
    exactly 1, making alpha the sole steepness knob downstream.  Raises
    `NotSeparableError` (listing the violating rows) if any row is still
    misclassified after the epoch budget.
    """
    xb, t = _design_matrix(table)
    signs = 2.0 * t - 1.0
    rng = np.random.default_rng(config.seed)
    w = rng.normal(0.0, 0.1, xb.shape[1])
    for _ in range(EPOCHS):
        p = _sigmoid(xb @ w)
        w -= LEARNING_RATE * (xb.T @ (p - t)) / len(t)
        margins = signs * (xb @ w)
        if margins.min() >= 1.0:
            break
    if margins.min() <= 0.0:
        bad = [bits for (bits, _), m in zip(table.rows(), margins) if m <= 0]
        rows = [" ".join(map(str, b)) for b in bad]
        raise NotSeparableError(
            f"table is not linearly separable: rows {rows} cannot be "
            "classified by any hyperplane found")
    return w / margins.min()


def weights_to_neuron(w: Sequence[float], config: DesignConfig) -> NeuronSpec:
    """Map classifier weights to a calibrated machine.

    h_k follows sign(w_k) (zero weights decouple as h_k = 0, eps_k = 0),
    gaps are alpha-scaled magnitudes with the reference gap absorbing the
    resonance bookkeeping, and beta_0 carries the bias.  The target-qubit
    gap is set to the resulting virtual gap and the modulator recalibrated.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 1 or len(w) < 2:
        raise DesignError("need a bias weight plus at least one input weight")
    if not np.all(np.isfinite(w)):
        raise DesignError("weights must be finite")
    tail = float(w[1:].sum())
    denom = config.eps_z - tail
    if abs(denom) < 1e-9:
        raise DesignError(
            f"degenerate design: |eps_z - sum(w_k)| = {abs(denom):.3e} < 1e-9 "
            "(the bias temperature is undefined); rescale the weights")
    # h_0 must track the sign of (eps_z - sum w_k), not of w_0, so that the
    # signed virtual gap comes out at +alpha*eps_z; when the two signs agree
    # (every textbook gate) this reduces to h_0 = [w_0 < 0] with beta_0 >= 0,
    # otherwise the reference bath is population-inverted (beta_0 < 0).
    h = (0 if denom > 0 else 1,) + tuple(0 if wk >= 0 else 1 for wk in w[1:])
    # In Python floats, which overflow to inf without numpy's warnings.  No
    # level energy, nor any partial sum of the virtual gap, exceeds sum(eps).
    magnitudes = [abs(denom)] + [abs(wk) for wk in w[1:].tolist()]
    eps = tuple(config.alpha * m for m in magnitudes)
    if not math.isfinite(sum(eps)):
        raise DesignError(
            f"qubit gaps alpha * |w| overflow at alpha = {config.alpha!r} (largest "
            f"|w| = {max(magnitudes)!r}, where the reference qubit's w is "
            "eps_z - sum(w_k)); lower alpha")
    beta0 = float(w[0]) / denom
    signed_gap = -virtual_gap(h, eps)
    try:
        spec = build_neuron(eps, h, beta0, signed_gap, mu=config.mu)
    except CalibrationError as exc:
        raise DesignError(
            f"no calibrated machine at alpha = {config.alpha!r}, eps_z = "
            f"{config.eps_z!r}: the machine's target gap alpha * eps_z comes out "
            f"{signed_gap!r} ({exc}); change alpha or eps_z") from None
    resid = perceptron_identity_residual(spec, w, config.alpha)
    if resid > 1e-9 * max(1.0, config.alpha * float(np.abs(w).max())):
        raise DesignError(f"perceptron identity violated (residual {resid:.3e})")
    return spec


def perceptron_identity_residual(spec: NeuronSpec, w: Sequence[float],
                                 alpha: float) -> float:
    """max |eps_z * beta_v - alpha (w_0 + sum w_k beta_k)| over random inputs."""
    w = np.asarray(w, dtype=float)
    rows = np.random.default_rng(IDENTITY_SEED).uniform(
        0.0, 1.0, (IDENTITY_TRIALS, spec.n))
    beta_v, _ = steady_response(spec, rows)
    # One dot product per row keeps the summation order of the scalar form.
    return max((abs(spec.eps_z * bv - alpha * (w[0] + float(w[1:] @ betas)))
                for bv, betas in zip(beta_v.tolist(), rows)), default=0.0)


PRESET_WEIGHTS = {
    # NOT is (1, -2) scaled by 1/2 so that alpha plays the role of the input gap.
    "NOT": (0.5, -1.0),
    "NOR": (1.0, -2.0, -2.0),
    "MAJ3": (-4.0, 3.0, 3.0, 3.0),
}


def preset(gate: str, config: DesignConfig | None = None) -> NeuronSpec:
    """Machine for a named gate from its fixed textbook weight vector."""
    key = gate.upper()
    if key not in PRESET_WEIGHTS:
        raise ConfigError(f"no preset weights for '{gate}'; "
                          f"choose from {sorted(PRESET_WEIGHTS)}")
    return weights_to_neuron(PRESET_WEIGHTS[key], config or DesignConfig())


def search_alpha(table: TruthTable, config: DesignConfig,
                 weights: Sequence[float] | None = None) -> float:
    """Smallest power-of-two multiple of config.alpha at which every row decodes by
    DESIGN_ENCODING."""
    w = (np.asarray(weights, dtype=float) if weights is not None
         else train_perceptron(table, config))
    alpha = config.alpha
    while alpha <= ALPHA_MAX:
        spec = weights_to_neuron(w, replace(config, alpha=alpha))
        _, finals = steady_response(spec, logic_rows(spec))
        if decode_array(finals, DESIGN_ENCODING, spec).tolist() == list(table.outputs):
            return alpha
        alpha *= 2.0
    raise DesignError(f"no steepness up to {ALPHA_MAX} decodes the table")
