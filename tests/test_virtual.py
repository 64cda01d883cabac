"""Interaction-vector algebra: gaps, populations, virtual temperatures,
and the resonant coupling Hamiltonian."""

import numpy as np
import pytest

import thermoneuron as tn
from thermoneuron.errors import ResonanceError, SingularGapError, StructuralError
from thermoneuron.quantum import QubitRegister
from thermoneuron.virtual import coupled_levels, flip, weighted_bias

FERMI_AT_ONE = 0.26894142136999512075


class TestVirtualGap:
    def test_sign_by_sign(self):
        assert tn.virtual_gap((0, 1), (2.0, 1.0)) == -1.0

    def test_uniform_sign(self):
        assert tn.virtual_gap((0, 0, 0), (1.0, 2.0, 3.0)) == -6.0

    def test_not_collector_convention(self):
        # The physically coupled splitting is eps_0 - eps_1 = |virtual gap|.
        assert abs(tn.virtual_gap((0, 1), (2.0, 1.0))) == 2.0 - 1.0

    def test_flip_negates(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            h = tuple(int(b) for b in rng.integers(0, 2, n))
            eps = tuple(rng.uniform(0.1, 3.0, n))
            assert np.isclose(tn.virtual_gap(flip(h), eps),
                              -tn.virtual_gap(h, eps))

    def test_length_mismatch(self):
        with pytest.raises(StructuralError):
            tn.virtual_gap((0, 1), (1.0,))


class TestVirtualPopulation:
    def test_infinite_temperature(self):
        for n in (1, 2, 3, 4):
            h = tuple(int(b) for b in np.random.default_rng(n).integers(0, 2, n))
            p = tn.virtual_population(h, (0.0,) * n, (1.0,) * n)
            assert abs(p - 0.5 ** n) < 1e-14

    def test_single_qubit_ground_factor(self):
        p = tn.virtual_population((0,), (1.0,), (1.0,))
        assert abs(p - (1.0 - FERMI_AT_ONE)) < 1e-12  # (1 + e^-1)^-1

    def test_tensor_product_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(1, 4))
            h = tuple(int(b) for b in rng.integers(0, 2, n))
            betas = tuple(rng.uniform(-1.0, 2.0, n))
            eps = tuple(rng.uniform(0.1, 3.0, n))
            reg = QubitRegister(eps)
            rho = tn.gibbs_register(reg, betas)
            idx = np.ravel_multi_index(h, (2,) * reg.m)
            assert abs(tn.virtual_population(h, betas, eps)
                       - rho[idx, idx].real) < 1e-12

    def test_flip_complements_within_subspace(self):
        # Flipping every bit swaps the two level populations.
        h, betas, eps = (0, 1, 1), (0.5, 0.2, 0.9), (2.0, 1.0, 0.7)
        vq = tn.virtual_qubit(h, betas, eps)
        vq_f = tn.virtual_qubit(flip(h), betas, eps)
        assert abs(vq.population - vq_f.population) < 1e-12  # same excited level
        assert abs(vq.beta_v - vq_f.beta_v) < 1e-12
        assert abs(vq.gap - vq_f.gap) < 1e-12


class TestVirtualTemperature:
    def test_not_machine_value(self):
        # (beta0 eps0 - beta1 eps1) / eps_z = (2 - 0.5) / 1.
        bv = tn.virtual_temperature((0, 1), (1.0, 0.5), (2.0, 1.0), 1.0)
        assert abs(bv - 1.5) < 1e-14

    def test_equilibrium_reproduces_bath_temperature(self):
        for beta in (0.25, 1.0, 3.0):
            bv = tn.virtual_temperature((0, 1), (beta, beta), (2.0, 1.0), 1.0)
            assert abs(bv - beta) < 1e-12

    def test_zero_target_gap_rejected(self):
        with pytest.raises(SingularGapError):
            tn.virtual_temperature((0, 1), (1.0, 1.0), (2.0, 1.0), 0.0)

    def test_population_ratio_oracle_on_random_machines(self):
        # Closed form against beta from the within-subspace population ratio.
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            h = tuple(int(b) for b in rng.integers(0, 2, n + 1))
            betas = tuple(rng.uniform(-1.0, 2.0, n + 1))
            eps = tuple(rng.uniform(0.1, 3.0, n + 1))
            signed = -tn.virtual_gap(h, eps)
            if abs(signed) < 1e-3:
                continue
            closed = tn.virtual_temperature(h, betas, eps, signed)
            vq = tn.virtual_qubit(h, betas, eps)
            r = vq.population
            brute = -np.log(r / (1.0 - r)) / vq.gap
            assert abs(closed - brute) < 1e-10
            assert vq.ratio_residual() < 1e-10

    def test_temperature_matches_populations_of_the_product_state(self):
        # An oracle that shares no sum with virtual_temperature: P(h) and P(h-bar)
        # are read off the diagonal of the dense product of single-qubit Gibbs
        # states, on the 100 random machines of the population-ratio test above.
        # The worst difference seen is 1.1e-14; the bound is acceptance
        # criterion 3's 1e-10.
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            h = tuple(int(b) for b in rng.integers(0, 2, n + 1))
            betas = tuple(rng.uniform(-1.0, 2.0, n + 1))
            eps = tuple(rng.uniform(0.1, 3.0, n + 1))
            signed = -tn.virtual_gap(h, eps)
            if abs(signed) < 1e-3:
                continue
            p = np.diag(tn.gibbs_register(QubitRegister(eps), betas)).real
            index = int("".join(map(str, h)), 2)
            bar = index ^ ((1 << (n + 1)) - 1)
            oracle = (np.log(p[index]) - np.log(p[bar])) / signed
            assert abs(tn.virtual_temperature(h, betas, eps, signed) - oracle) < 1e-10

    def test_virtual_qubit_invariant_identity(self):
        vq = tn.virtual_qubit((0, 1), (1.0, 0.5), (2.0, 1.0))
        assert vq.gap == 1.0
        assert abs(vq.beta_v - 1.5) < 1e-12
        assert vq.ratio_residual() < 1e-12

    def test_weighted_bias_matches_temperature_times_gap(self):
        h, betas, eps = (1, 0, 1), (0.3, 0.8, 1.2), (1.5, 2.5, 0.5)
        signed = -tn.virtual_gap(h, eps)
        assert abs(weighted_bias(h, betas, eps)
                   - signed * tn.virtual_temperature(h, betas, eps, signed)) < 1e-12


class TestCoupledLevels:
    def test_indices_follow_the_bit_rule(self):
        # Qubit 0 is the most significant bit: bits b index sum_i b_i 2^(m-1-i).
        def index(bits):
            return sum(b * 2 ** (len(bits) - 1 - i) for i, b in enumerate(bits))

        rng = np.random.default_rng(17)
        orientations = set()
        for _ in range(200):
            n = int(rng.integers(1, 6))
            h = tuple(int(b) for b in rng.integers(0, 2, n))
            eps = tuple(float(e) for e in rng.uniform(0.5, 3.0, n))
            vg = tn.virtual_gap(h, eps)
            if abs(vg) < 0.1:
                continue
            a, b = coupled_levels(h, QubitRegister(eps + (abs(vg),)))
            lower = h if vg <= 0 else flip(h)
            assert (a, b) == (index(lower + (1,)), index(flip(lower) + (0,)))
            assert type(a) is int and type(b) is int
            orientations.add(vg <= 0)
        assert orientations == {True, False}


class TestInteractionHamiltonian:
    def test_not_machine_couples_the_degenerate_pair(self):
        reg = QubitRegister((2.0, 1.0, 1.0))
        hint = tn.build_interaction_hamiltonian((0, 1), 0.8, reg)
        a = 0b100
        b = 0b011
        assert hint[a, b] == 0.8 and hint[b, a] == 0.8
        assert np.count_nonzero(hint) == 2

    def test_commutes_with_free_hamiltonian(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            h = tuple(int(b) for b in rng.integers(0, 2, n + 1))
            eps = tuple(rng.uniform(0.2, 3.0, n + 1))
            target = abs(tn.virtual_gap(h, eps))
            if target < 1e-6:
                continue
            reg = QubitRegister(eps + (target,))
            hint = tn.build_interaction_hamiltonian(h, 1.3, reg)
            h0 = reg.free_hamiltonian()
            assert np.abs(hint @ h0 - h0 @ hint).max() <= 1e-10

    def test_zero_coupling_gives_zero_matrix(self):
        reg = QubitRegister((2.0, 1.0, 1.0))
        hint = tn.build_interaction_hamiltonian((0, 1), 0.0, reg)
        assert np.count_nonzero(hint) == 0

    def test_resonance_violation_reports_mismatch(self):
        reg = QubitRegister((2.0, 1.0, 1.5))
        with pytest.raises(ResonanceError, match="5.0+e-01"):
            tn.build_interaction_hamiltonian((0, 1), 1.0, reg)

    def test_detuning_within_resonance_tolerance_is_accepted(self):
        # A detuning below RESONANCE_TOL builds the coupling; `lindblad_rhs`,
        # which takes raw matrices, still holds [Hint, H0] to 1e-10.
        reg = QubitRegister((2.0 + 5e-10, 1.0, 1.0))
        hint = tn.build_interaction_hamiltonian((0, 1), 1.0, reg)
        assert np.count_nonzero(hint) == 2
        rho = np.eye(reg.dim, dtype=complex) / reg.dim
        with pytest.raises(StructuralError, match="does not conserve energy"):
            tn.lindblad_rhs(rho, reg.free_hamiltonian(), hint, [], reg)

    def test_negative_virtual_gap_is_relabeled(self):
        # h = (1, 0) has virtual gap +1 on (2, 1); flipping labels gives the
        # same physical coupling as h = (0, 1).
        reg = QubitRegister((2.0, 1.0, 1.0))
        hint_a = tn.build_interaction_hamiltonian((0, 1), 0.6, reg)
        hint_b = tn.build_interaction_hamiltonian((1, 0), 0.6, reg)
        assert np.array_equal(hint_a, hint_b)
