"""Layered networks of thermodynamic neurons.

Layers run one after the other: every neuron in layer l+1 reads, as its
input bath temperatures, the steady outputs of the layer-l neurons it is
wired to (an ideal infinite bath at that temperature).  Training happens
on the equivalent sigmoid network with backpropagation and ADAM, after
which each unit's weights are rescaled to unit margin and compiled with
`weights_to_neuron`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DesignError, StructuralError
from .designer import (DESIGN_ENCODING, DesignConfig, TruthTable, decode_array,
                       logic_rows, weights_to_neuron)
from .neuron import NeuronSpec, steady_response

# ADAM step size and epoch budget of `train_network`.
LEARNING_RATE, EPOCHS = 0.01, 5_000


@dataclass(frozen=True)
class NetworkSpec:
    """Strictly layered, acyclic wiring of neurons on shared rails, ending in one unit."""

    n: int
    layers: tuple[tuple[NeuronSpec, ...], ...]
    wiring: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self):
        if self.n < 1:
            raise StructuralError("network needs at least one primary input")
        if len(self.layers) != len(self.wiring) or not self.layers:
            raise StructuralError("layers and wiring must align and be non-empty")
        width = self.n
        for li, (layer, wires) in enumerate(zip(self.layers, self.wiring)):
            if len(layer) != len(wires) or not layer:
                raise StructuralError(f"layer {li}: neuron/wiring count mismatch")
            for ni, (neuron, feed) in enumerate(zip(layer, wires)):
                if neuron.n != len(feed):
                    raise StructuralError(
                        f"layer {li} neuron {ni}: arity {neuron.n} != "
                        f"wiring width {len(feed)}")
                if any(not 0 <= k < width for k in feed):
                    raise StructuralError(
                        f"layer {li} neuron {ni}: wiring index out of range")
                if (neuron.beta_hot, neuron.beta_cold) != (self.beta_hot, self.beta_cold):
                    raise StructuralError("all neurons must share the same rails")
            width = len(layer)
        if width != 1:
            raise StructuralError(f"last layer must hold one output unit, got {width}")

    # The rails every unit shares (logic 0 -> beta_hot, 1 -> beta_cold).
    beta_hot = property(lambda self: self.layers[0][0].beta_hot)
    beta_cold = property(lambda self: self.layers[0][0].beta_cold)


def eval_layers(net: NetworkSpec, rows) -> tuple[np.ndarray, ...]:
    """Per-layer (N, width) steady outputs for input rows of shape (N, net.n)."""
    values = np.asarray(rows, dtype=float)
    if values.ndim != 2 or values.shape[1] != net.n:
        raise StructuralError(f"expected {net.n} inputs, got rows {values.shape}")
    per_layer = []
    for layer, wires in zip(net.layers, net.wiring):
        values = np.column_stack([steady_response(neuron, values[:, list(feed)])[1]
                                  for neuron, feed in zip(layer, wires)])
        per_layer.append(values)
    return tuple(per_layer)


def _forward(x, weights, biases):
    acts = [x]
    for w, b in zip(weights, biases):
        z = acts[-1] @ w.T + b
        acts.append(1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0))))
    return acts


def _binarized_margins(x_rows, weights, biases):
    """Propagate hard 0/1 activations; collect per-unit margins over rows."""
    acts = x_rows
    margins = []
    for w, b in zip(weights, biases):
        pre = acts @ w.T + b
        margins.append(np.abs(pre).min(axis=0))
        acts = (pre > 0).astype(float)
    return margins, acts[:, -1]


def train_network(table: TruthTable, topology: Sequence[int],
                  config: DesignConfig | None = None) -> NetworkSpec:
    """Backprop + ADAM on the equivalent sigmoid network, then compile each unit.

    The topology lists layer widths after the inputs and must end in 1.
    Training is deterministic for a given seed.  Raises `DesignError` if
    the trained design does not reproduce the table; when training itself
    missed a row, the message gives the final loss.
    """
    config = config or DesignConfig()
    topology = tuple(int(s) for s in topology)
    if not topology or topology[-1] != 1:
        raise ConfigError("topology must end in a single output neuron")
    if any(s < 1 for s in topology):
        raise ConfigError("layer sizes must be positive")
    sizes = (table.n,) + topology
    rng = np.random.default_rng(config.seed)
    weights = [rng.normal(0.0, 1.0, (sizes[i + 1], sizes[i]))
               for i in range(len(topology))]
    biases = [rng.normal(0.0, 1.0, sizes[i + 1]) for i in range(len(topology))]

    x_rows = np.array([bits for bits, _ in table.rows()], dtype=float)
    targets = np.array(table.outputs, dtype=float)

    # The ADAM step updates each array in place, so weights and biases see it.
    params = weights + biases
    adam_m = [np.zeros_like(p) for p in params]
    adam_v = [np.zeros_like(p) for p in params]
    beta1, beta2, eps_adam = 0.9, 0.999, 1e-8
    for step in range(1, EPOCHS + 1):
        acts = _forward(x_rows, weights, biases)
        out = acts[-1][:, 0]
        delta = (out - targets)[:, None] / len(targets)
        grads_w, grads_b = [], []   # last layer first
        for li in reversed(range(len(weights))):
            grads_w.append(delta.T @ acts[li])
            grads_b.append(delta.sum(axis=0))
            if li > 0:
                a = acts[li]
                delta = (delta @ weights[li]) * a * (1.0 - a)
        for i, (p, g) in enumerate(zip(params, grads_w[::-1] + grads_b[::-1])):
            adam_m[i] = beta1 * adam_m[i] + (1 - beta1) * g
            adam_v[i] = beta2 * adam_v[i] + (1 - beta2) * g * g
            m_hat = adam_m[i] / (1 - beta1 ** step)
            v_hat = adam_v[i] / (1 - beta2 ** step)
            p -= LEARNING_RATE * m_hat / (np.sqrt(v_hat) + eps_adam)
        if step % 25 == 0:
            margins, final_bits = _binarized_margins(x_rows, weights, biases)
            if (np.all(final_bits == targets)
                    and min(m.min() for m in margins) >= 1.0):
                break

    margins, final_bits = _binarized_margins(x_rows, weights, biases)
    if not np.all(final_bits == targets):
        bad = [bits for (bits, _), fb, tg in
               zip(table.rows(), final_bits, targets) if fb != tg]
        # Cross-entropy of the last forward pass.
        loss = float(-(targets * np.log(out + 1e-12)
                       + (1 - targets) * np.log(1 - out + 1e-12)).mean())
        raise DesignError(
            f"network training failed on rows {bad} after "
            f"{EPOCHS} epochs (final loss {loss:.4g}); "
            "try a different seed")

    layers, wiring = [], []
    for li, (w, b) in enumerate(zip(weights, biases)):
        units, feeds = [], []
        for j in range(w.shape[0]):
            margin = margins[li][j]
            if margin <= 0:
                raise DesignError(
                    f"layer {li} unit {j} has zero margin; try a different seed")
            unit_w = np.concatenate(([b[j]], w[j])) / margin
            units.append(weights_to_neuron(unit_w, config))
            feeds.append(tuple(range(w.shape[1])))
        layers.append(tuple(units))
        wiring.append(tuple(feeds))
    net = NetworkSpec(n=table.n, layers=tuple(layers), wiring=tuple(wiring))

    # Behavioral check through the exact steady-state composition.
    finals = eval_layers(net, logic_rows(net))[-1][:, -1]
    decoded = decode_array(finals, DESIGN_ENCODING, net).tolist()
    for (bits, out), final, got in zip(table.rows(), finals.tolist(), decoded):
        if got != out:
            raise DesignError(
                f"trained network mis-decodes row {bits}: beta_z = {final:.4g}; "
                "try a different seed or a larger alpha")
    return net
