"""Bit-identity oracle for the batch transfer kernel.

The reference below is the scalar form of the steady-state transfer
characteristic, written with `math` one point at a time: the Fermi
function, beta_z from beta_v, one neuron, and a network layer by layer.
The batch kernel must reproduce it exactly (==, not within a tolerance):
numpy's own exp/log/log1p differ from `math` by an ulp on some inputs.
"""

import math

import numpy as np
import pytest

import thermoneuron as tn
from thermoneuron.network import eval_layers
from thermoneuron.neuron import steady_response


def ref_fermi(x):
    if math.isnan(x):
        raise ValueError("NaN")
    if x >= 0.0:
        z = math.exp(-x)
        return z / (1.0 + z)
    return 1.0 / (1.0 + math.exp(x))


def ref_steady_from_virtual(spec, beta_v):
    g_v = ref_fermi(beta_v * spec.eps_z)
    g_hot = ref_fermi(spec.beta_hot * spec.eps_z)
    g_cold = ref_fermi(spec.beta_cold * spec.eps_z)
    q = g_cold + (g_hot - g_cold) * g_v
    return (math.log1p(-q) - math.log(q)) / spec.eps_z


def ref_steady_output(spec, inputs):
    """(beta_v, beta_z) of one input row."""
    betas = (spec.beta0,) + tuple(float(b) for b in inputs)
    bias = float(sum(-beta * e if b else beta * e
                     for b, beta, e in zip(spec.h, betas, spec.eps)))
    beta_v = bias / spec.eps_z
    return beta_v, ref_steady_from_virtual(spec, beta_v)


def ref_eval_network(net, inputs):
    values = tuple(float(b) for b in inputs)
    for layer, wires in zip(net.layers, net.wiring):
        values = tuple(ref_steady_output(neuron, [values[k] for k in feed])[1]
                       for neuron, feed in zip(layer, wires))
    return values[-1]


@pytest.fixture(scope="module")
def xor_net():
    return tn.train_network(tn.gate_table("XOR"), (2, 1), tn.DesignConfig(seed=7))


def _rows(n, count, seed):
    """Random rows in [-0.5, 1.5] followed by every rail corner."""
    rng = np.random.default_rng(seed)
    corners = [[float(b) for b in bits] for bits, _ in tn.gate_table(
        {1: "NOT", 2: "NOR", 3: "MAJ3"}[n]).rows()]
    return np.vstack((rng.uniform(-0.5, 1.5, (count, n)), corners))


@pytest.mark.parametrize("gate", ["NOT", "NOR", "MAJ3"])
def test_neuron_batch_equals_scalar_reference(gate):
    spec = tn.preset(gate)
    rows = _rows(spec.n, 3000, seed=11)
    beta_v, beta_z = steady_response(spec, rows)
    want = [ref_steady_output(spec, row) for row in rows.tolist()]
    assert beta_v.tolist() == [bv for bv, _ in want]
    assert beta_z.tolist() == [bz for _, bz in want]
    for row, (bv, bz) in zip(rows.tolist()[-4:], want[-4:]):
        point = tn.steady_output(spec, row)
        assert (point.beta_v, point.beta_z_inf) == (bv, bz)


def test_network_batch_equals_layer_by_layer_reference(xor_net):
    rows = _rows(2, 1000, seed=12)
    finals = eval_layers(xor_net, rows)[-1][:, -1]
    want = [ref_eval_network(xor_net, row) for row in rows.tolist()]
    assert finals.tolist() == want
    assert tn.machine_response(xor_net, rows).tolist() == want
    for row, bz in zip(rows.tolist()[-4:], want[-4:]):
        assert tn.eval_network(xor_net, row).final == bz


def test_batch_rows_equal_batches_of_one(xor_net):
    spec = tn.preset("MAJ3")
    rows = _rows(3, 20, seed=13)
    beta_v, beta_z = steady_response(spec, rows)
    finals = eval_layers(xor_net, rows[:, :2])[-1][:, -1]
    for i, row in enumerate(rows):
        one_v, one_z = steady_response(spec, row[None, :])
        assert (one_v.tolist(), one_z.tolist()) == ([beta_v[i]], [beta_z[i]])
        assert eval_layers(xor_net, row[None, :2])[-1][:, -1].tolist() == [finals[i]]


def test_extreme_virtual_temperatures_and_the_hot_rail():
    spec = tn.preset("NOT")
    extremes = np.array([1e6, -1e6, 0.0, -0.0])
    got = tn.steady_from_virtual(spec, extremes).tolist()
    assert got == [ref_steady_from_virtual(spec, b) for b in extremes.tolist()]
    assert [tn.steady_from_virtual(spec, b) for b in extremes.tolist()] == got
    # beta_v -> -inf drives q to g_z(beta_hot) = 1/2: log1p(-q) - log(q) is
    # exactly zero in libm, but not with numpy's log ufuncs.
    assert got[1] == 0.0
    assert steady_response(tn.preset("NOR"), [[1.0, 1.0]])[1].tolist() == [0.0]
    assert steady_response(tn.preset("MAJ3"), [[0.0, 0.0, 0.0]])[1].tolist() == [0.0]


def test_fermi_array_equals_float_elementwise():
    rng = np.random.default_rng(14)
    x = np.concatenate((rng.normal(0.0, 30.0, 5000), rng.uniform(-1.0, 1.0, 1000),
                        [0.0, -0.0, math.inf, -math.inf, 745.0, -745.0, 1e308]))
    got = tn.fermi_population(x)
    assert got.shape == x.shape
    assert got.tolist() == [tn.fermi_population(v) for v in x.tolist()]
    assert got.tolist() == [ref_fermi(v) for v in x.tolist()]
    grid = x[:6000].reshape(60, 100)
    assert tn.fermi_population(grid).tolist() == got[:6000].reshape(60, 100).tolist()


def test_nan_anywhere_in_an_array_raises():
    x = np.zeros(7)
    x[5] = math.nan
    with pytest.raises(ValueError, match="NaN"):
        tn.fermi_population(x)
    with pytest.raises(ValueError, match="NaN"):
        steady_response(tn.preset("NOR"), [[0.0, 0.0], [math.nan, 1.0]])
