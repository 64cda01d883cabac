"""Layered composition and whole-network training."""

import numpy as np
import pytest

import thermoneuron as tn
from thermoneuron.errors import StructuralError, TrainingError
from thermoneuron.serialize import network_to_dict

XOR_SEED = 7  # documented working seed for the 2-2-1 XOR network


def additive_decode(beta_z, lo=0.1, hi=0.9):
    return 0 if beta_z <= lo else (1 if beta_z >= hi else None)


def hand_built_xor(alpha=20.0):
    """XOR as AND(NAND(x1, x2), OR(x1, x2)) from textbook hyperplanes."""
    cfg = tn.DesignConfig(alpha=alpha, eps_z=0.1)
    nand = tn.weights_to_neuron((3.0, -2.0, -2.0), cfg)
    orr = tn.weights_to_neuron((-1.0, 2.0, 2.0), cfg)
    andd = tn.weights_to_neuron((-3.0, 2.0, 2.0), cfg)
    return tn.NetworkSpec(
        n=2,
        layers=((nand, orr), (andd,)),
        wiring=(((0, 1), (0, 1)), ((0, 1),)))


class TestEvalNetwork:
    def test_single_layer_equals_steady_output(self):
        neuron = tn.preset("NOR", tn.DesignConfig(alpha=5.0))
        net = tn.NetworkSpec(n=2, layers=((neuron,),),
                             wiring=(((0, 1),),))
        for betas in ((0.0, 0.0), (0.3, 0.9), (1.0, 1.0)):
            direct = tn.steady_output(neuron, betas).beta_z_inf
            assert tn.eval_layers(net, [betas])[-1][0, -1] == direct

    def test_xor_fixture_truth_table(self):
        net = hand_built_xor()
        for bits, out in tn.gate_table("XOR").rows():
            final = tn.eval_layers(net, [bits])[-1][0, -1]
            assert additive_decode(final) == out

    def test_compositionality_matches_manual_chaining(self):
        net = hand_built_xor()
        (nand, orr), (andd,) = net.layers
        for betas in ((0.0, 1.0), (0.7, 0.2), (1.0, 1.0)):
            layers = tn.eval_layers(net, [betas])
            h1 = tn.steady_output(nand, betas).beta_z_inf
            h2 = tn.steady_output(orr, betas).beta_z_inf
            manual = tn.steady_output(andd, (h1, h2)).beta_z_inf
            assert abs(layers[-1][0, -1] - manual) < 1e-12
            assert tuple(layers[0][0].tolist()) == (h1, h2)

    def test_intermediate_rails(self):
        net = hand_built_xor()
        rng = np.random.default_rng(8)
        for _ in range(20):
            betas = tuple(rng.uniform(0.0, 1.0, 2))
            for layer in tn.eval_layers(net, [betas]):
                for value in layer[0]:
                    assert -1e-9 <= value <= 1.0 + 1e-9

    def test_wiring_arity_checked(self):
        neuron = tn.preset("NOR")
        with pytest.raises(StructuralError, match="arity"):
            tn.NetworkSpec(n=2, layers=((neuron,),), wiring=(((0,),),))

    def test_last_layer_must_hold_one_unit(self):
        # Every reading decodes the last unit alone, so a second one there
        # would be judged in place of the network's output.
        (nand, orr), (andd,) = hand_built_xor().layers
        with pytest.raises(StructuralError,
                           match=r"^last layer must hold one output unit, got 2$"):
            tn.NetworkSpec(n=2, layers=((nand, orr), (andd, nand)),
                           wiring=(((0, 1), (0, 1)), ((0, 1), (0, 1))))

    def test_input_count_checked(self):
        net = hand_built_xor()
        with pytest.raises(StructuralError):
            tn.eval_layers(net, [(0.5,)])


class TestTrainNetwork:
    def test_xor_2_2_1(self):
        cfg = tn.DesignConfig(alpha=20.0, eps_z=0.1, seed=XOR_SEED)
        net = tn.train_network(tn.gate_table("XOR"), (2, 1), cfg)
        assert [len(layer) for layer in net.layers] == [2, 1]
        for bits, out in tn.gate_table("XOR").rows():
            final = tn.eval_layers(net, [bits])[-1][0, -1]
            assert additive_decode(final) == out

    def test_single_layer_reduces_to_one_neuron(self):
        cfg = tn.DesignConfig(alpha=20.0, eps_z=0.1, seed=2)
        net = tn.train_network(tn.gate_table("AND"), (1,), cfg)
        assert len(net.layers) == 1 and len(net.layers[0]) == 1
        for bits, out in tn.gate_table("AND").rows():
            final = tn.eval_layers(net, [bits])[-1][0, -1]
            assert additive_decode(final) == out

    def test_seed_determinism_bit_for_bit(self):
        cfg = tn.DesignConfig(alpha=20.0, eps_z=0.1, seed=XOR_SEED)
        net_a = tn.train_network(tn.gate_table("XOR"), (2, 1), cfg)
        net_b = tn.train_network(tn.gate_table("XOR"), (2, 1), cfg)
        assert network_to_dict(net_a) == network_to_dict(net_b)

    def test_failing_seed_reports_loss(self):
        # Seed 0 stalls on XOR within the epoch budget; the error carries
        # the final loss so callers can decide to reseed.
        cfg = tn.DesignConfig(alpha=20.0, eps_z=0.1, seed=0)
        with pytest.raises(TrainingError) as err:
            tn.train_network(tn.gate_table("XOR"), (2, 1), cfg)
        assert err.value.loss is not None

    def test_topology_must_end_in_one(self):
        with pytest.raises(tn.ConfigError):
            tn.train_network(tn.gate_table("XOR"), (2, 2), tn.DesignConfig())
