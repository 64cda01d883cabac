"""The model's three exact symmetries, checked on random machines.

Each symmetry relates two runs of the code, so it needs no oracle
(metamorphic testing: Chen, Cheung and Yiu, HKUST-CS98-01, 1998) and reaches
input counts that the dense oracle does not:

- time scale: multiply gamma, chi, mu and mu' by c.  beta_z at t / c then
  equals the original's beta_z at t, and sigma to tau / c equals sigma to tau;
- energy scale: multiply every gap by c, divide every inverse temperature
  (beta0, the inputs, the rails, beta_r and beta_z0) by c, and multiply C by
  c^2.  beta_z is then divided by c and sigma does not change;
- input order: permute the inputs together with their (eps_k, h_k).  Nothing
  changes.

Each bound stands beside the worst case measured on these draws.  A
violation is a finding about the code, not a bound to loosen.
"""

import dataclasses

import numpy as np
import pytest

import thermoneuron as tn
from conftest import random_inputs, random_neuron

BETA_Z0, TAU = 0.5, 1e5


def draw_cases():
    """Eight random machines (n <= 3), each with inputs, a time factor, an
    energy factor and an order of its inputs, other than their own when n > 1."""
    rng = np.random.default_rng(5)
    cases = []
    for _ in range(8):
        spec = random_neuron(rng, n_max=3)
        inputs = random_inputs(rng, spec)
        c_time = float(10.0 ** rng.uniform(-1.0, 1.0))
        c_energy = float(2.0 ** rng.uniform(-2.0, 2.0))
        perm = tuple(range(spec.n))
        while spec.n > 1 and perm == tuple(range(spec.n)):
            perm = tuple(int(k) for k in rng.permutation(spec.n))
        cases.append((spec, inputs, c_time, c_energy, perm))
    return cases


CASES = draw_cases()


def time_scaled(spec, c):
    return dataclasses.replace(spec, chi=c * spec.chi, gamma=c * spec.gamma,
                               mu=c * spec.mu, mu_prime=c * spec.mu_prime)


def energy_scaled(spec, c):
    # Built field by field: `build_neuron` fixes the rails.
    return dataclasses.replace(
        spec, eps=tuple(c * e for e in spec.eps), eps_z=c * spec.eps_z,
        beta0=spec.beta0 / c, beta_r=spec.beta_r / c, beta_hot=spec.beta_hot / c,
        beta_cold=spec.beta_cold / c, capacity=c * c * spec.capacity)


def permuted(spec, inputs, perm):
    """The machine with its inputs reordered by `perm`, and the inputs to match."""
    eps = (spec.eps[0],) + tuple(spec.eps[1 + k] for k in perm)
    h = (spec.h[0],) + tuple(spec.h[1 + k] for k in perm)
    return dataclasses.replace(spec, eps=eps, h=h), tuple(inputs[k] for k in perm)


def entropy_balance(spec, inputs, beta_z0, t, beta_z):
    """sigma(t) of a quasi-static run from its endpoint, by the identity in the
    `dynamics` module docstring."""
    beta_v = tn.steady_output(spec, inputs).beta_v
    mu, mu_p, cap, beta_r = spec.mu, spec.mu_prime, spec.capacity, spec.beta_r
    drift = mu * mu_p * spec.eps_z * (spec.g_z(beta_r) - spec.g_z(beta_v))
    return (-cap * (beta_z ** 2 - beta_z0 ** 2) / 2
            + (cap * (mu * beta_v + mu_p * beta_r) * (beta_z - beta_z0)
               + drift * (beta_v - beta_r) * t) / (mu + mu_p))


def relative(a, b):
    return abs(a - b) / max(abs(a), abs(b))


class TestSteadyResponse:
    # Measured worst: 0 for the time scale and for input order, 3.3e-16 for
    # the energy scale (as c times beta_z).
    def test_time_scale(self):
        for spec, inputs, c, _, _ in CASES:
            assert (tn.steady_output(time_scaled(spec, c), inputs)
                    == tn.steady_output(spec, inputs))

    def test_energy_scale(self):
        for spec, inputs, _, c, _ in CASES:
            got = tn.steady_output(energy_scaled(spec, c), [b / c for b in inputs])
            assert abs(c * got.beta_z_inf - tn.steady_output(spec, inputs).beta_z_inf) <= 4e-15

    def test_input_order(self):
        for spec, inputs, _, _, perm in CASES:
            got = tn.steady_output(*permuted(spec, inputs, perm))
            assert got.beta_z_inf == tn.steady_output(spec, inputs).beta_z_inf


# Bounds on |beta_z(tau) - beta_z'(tau)| and on sigma(tau)'s relative change,
# ten times each run's relative tolerance (QUASI_RTOL 1e-9, FULL_RTOL 1e-8),
# with sigma given three times that in the full model.  Measured worst on
# these draws, quasi-static | full:
#   time scale:   endpoint 5.6e-16 | 3.5e-9, sigma 5.9e-16 (balance) | not compared
#   energy scale: endpoint 2.0e-14 | 6.0e-9, sigma 3.3e-13 | 2.6e-8
#   input order:  endpoint 0       | 1.2e-9, sigma 1.7e-16 | 2.0e-8
BOUNDS = {tn.evolve_quasi_static: (1e-8, 1e-8), tn.evolve_full: (1e-7, 3e-7)}


@pytest.mark.parametrize("evolve", [tn.evolve_quasi_static, tn.evolve_full],
                         ids=["quasi", "full"])
class TestEvolution:
    def test_time_scale(self, evolve):
        end_tol, sigma_tol = BOUNDS[evolve]
        for spec, inputs, c, _, _ in CASES:
            base = evolve(spec, inputs, BETA_Z0, TAU)
            scaled = evolve(time_scaled(spec, c), inputs, BETA_Z0, TAU / c)
            assert abs(scaled.endpoint - base.endpoint) <= end_tol
            # The trapezoids on the sample grids of tau and tau / c differ by
            # up to 1.0e-5 relative in the full model, so sigma is compared
            # through the quasi-static entropy balance, from the endpoint alone.
            if evolve is tn.evolve_quasi_static:
                want = entropy_balance(spec, inputs, BETA_Z0, TAU, base.endpoint)
                got = entropy_balance(time_scaled(spec, c), inputs, BETA_Z0, TAU / c,
                                      scaled.endpoint)
                assert relative(got, want) <= sigma_tol

    def test_energy_scale(self, evolve):
        end_tol, sigma_tol = BOUNDS[evolve]
        for spec, inputs, _, c, _ in CASES:
            base = evolve(spec, inputs, BETA_Z0, TAU)
            scaled = evolve(energy_scaled(spec, c), [b / c for b in inputs],
                            BETA_Z0 / c, TAU)
            assert abs(c * scaled.endpoint - base.endpoint) <= end_tol
            assert relative(scaled.sigma[-1], base.sigma[-1]) <= sigma_tol

    def test_input_order(self, evolve):
        end_tol, sigma_tol = BOUNDS[evolve]
        for spec, inputs, _, _, perm in CASES:
            base = evolve(spec, inputs, BETA_Z0, TAU)
            got = evolve(*permuted(spec, inputs, perm), BETA_Z0, TAU)
            assert abs(got.endpoint - base.endpoint) <= end_tol
            assert relative(got.sigma[-1], base.sigma[-1]) <= sigma_tol
