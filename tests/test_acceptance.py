"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are fixed here and nowhere else.
"""

import math
import time

import numpy as np

import thermoneuron as tn
from thermoneuron.neuron import steady_from_virtual, transfer_slope
from conftest import random_inputs, random_neuron

XOR_SEED = 7


def criterion(number, name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def additive_encoding(delta=0.1):
    return tn.Encoding(delta=delta, band="additive")


def test_01_not_gate_rails():
    # Steep inverter (input gap 20, beta0 = 0.5, eps_z = 0.1, rails (0, 1))
    # saturates both logic rails to 1e-3.
    start = time.perf_counter()
    spec = tn.inverter(20.0, 0.1)
    hot_in = tn.steady_output(spec, (0.0,)).beta_z_inf
    cold_in = tn.steady_output(spec, (1.0,)).beta_z_inf
    elapsed = time.perf_counter() - start
    ok = (abs(hot_in - 1.0) <= 1e-3 and abs(cold_in - 0.0) <= 1e-3
          and elapsed < 1.0)
    criterion(1, "NOT rails reached to 1e-3",
              ok, f"out(0)={hot_in:.6f}, out(1)={cold_in:.2e}, {elapsed:.2f}s")


def test_02_two_timescale_consistency():
    # Full 4-qubit co-integration vs the quasi-static endpoint (1% relative)
    # and the quasi-static endpoint vs the closed-form fixed point (1e-4).
    start = time.perf_counter()
    spec = tn.inverter(20.0, 0.1, mu=1e-4)
    tau = 1e8
    full = tn.evolve_full(spec, (0.0,), 0.5, tau)
    quasi = tn.evolve_quasi_static(spec, (0.0,), 0.5, tau)
    closed = tn.steady_output(spec, (0.0,)).beta_z_inf
    elapsed = time.perf_counter() - start
    rel = abs(full.endpoint - quasi.endpoint) / abs(quasi.endpoint)
    drift = abs(quasi.endpoint - closed)
    ok = rel <= 0.01 and drift <= 1e-4 and elapsed < 600.0
    criterion(2, "full integration consistent with the quasi-static fixed point",
              ok, f"full-vs-quasi {rel:.2e}, quasi-vs-closed {drift:.2e}, "
                  f"{elapsed:.1f}s")


def test_03_virtual_temperature_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(123)
    worst = 0.0
    count = 0
    while count < 100:
        n = int(rng.integers(1, 4))
        h = tuple(int(b) for b in rng.integers(0, 2, n + 1))
        betas = tuple(rng.uniform(-1.0, 2.0, n + 1))
        eps = tuple(rng.uniform(0.1, 3.0, n + 1))
        signed = -tn.virtual_gap(h, eps)
        if abs(signed) < 1e-3:
            continue
        count += 1
        closed = tn.virtual_temperature(h, betas, eps, signed)
        vq = tn.virtual_qubit(h, betas, eps)
        brute = -math.log(vq.population / (1.0 - vq.population)) / vq.gap
        worst = max(worst, abs(closed - brute))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    criterion(3, "virtual temperature matches the population-ratio oracle "
                 "on 100 machines", ok, f"worst {worst:.2e}, {elapsed:.2f}s")


def test_04_fixed_point_identity():
    spec = tn.inverter(20.0, 0.1)
    worst = 0.0
    for beta_v in np.linspace(-40.0, 40.0, 1000):
        bz = steady_from_virtual(spec, beta_v)
        mix = (spec.delta * spec.g_z(beta_v)
               + (1.0 - spec.delta) * spec.g_z(spec.beta_r))
        worst = max(worst, abs(spec.g_z(bz) - mix))
    ok = worst <= 1e-12
    criterion(4, "steady-state fixed-point identity on a 1000-point grid",
              ok, f"worst residual {worst:.2e}")


def test_05_gate_truth_tables():
    start = time.perf_counter()
    enc = additive_encoding(0.1)
    failures = []

    nor = tn.preset("NOR", tn.DesignConfig(alpha=20.0, eps_z=0.1))
    for bits, want in tn.gate_table("NOR").rows():
        got = tn.decode_array(tn.steady_output(
            nor, [tn.encode(b, nor) for b in bits]).beta_z_inf, enc, nor)
        if got != want:
            failures.append(("NOR", bits))

    maj = tn.preset("MAJ3", tn.DesignConfig(alpha=10.0, eps_z=0.1))
    for bits, want in tn.gate_table("MAJ3").rows():
        got = tn.decode_array(tn.steady_output(
            maj, [tn.encode(b, maj) for b in bits]).beta_z_inf, enc, maj)
        if got != want:
            failures.append(("MAJ3", bits))

    net = tn.train_network(tn.gate_table("XOR"), (2, 1),
                           tn.DesignConfig(alpha=20.0, eps_z=0.1, seed=XOR_SEED))
    for bits, want in tn.gate_table("XOR").rows():
        final = tn.eval_layers(net, [[tn.encode(b, net) for b in bits]])[-1][0, -1]
        if tn.decode_array(final, enc, net) != want:
            failures.append(("XOR", bits))

    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    criterion(5, "NOR 4/4, MAJ3 8/8, trained XOR 4/4 (seed 7, delta 0.1)",
              ok, f"failures {failures}, {elapsed:.1f}s")


def test_06_threshold_slope_analytics():
    spec = tn.inverter(20.0, 0.5)
    closed = tn.slope_at_threshold(spec)
    reference = -40.0 * math.tanh(0.125)
    fd = transfer_slope(spec, tn.threshold_point(spec))
    rel = abs(fd - closed) / abs(closed)
    tiny = tn.inverter(20.0, 1e-3, mu=1e-6)
    limit_err = abs(tn.slope_at_threshold(tiny) - (-5.0)) / 5.0
    ok = (abs(closed - reference) < 1e-10 and rel <= 1e-6
          and limit_err <= 1e-3)
    criterion(6, "transfer slope at the threshold matches the closed form",
              ok, f"closed {closed:.6f}, fd-rel {rel:.2e}, "
                  f"small-gap limit err {limit_err:.2e}")


def test_07_sigmoid_expansion_scaling():
    # The input-side sigmoid form drifts from the exact curve at O(eps_z):
    # halving eps_z halves the max deviation.  (In the eps_z*beta_v argument
    # the linear term cancels and the deviation is exactly O(eps_z^2); that
    # quadratic ratio is asserted alongside.)
    def dev_input_form(eps_z):
        spec = tn.inverter(20.0, eps_z)
        return max(abs(tn.steady_output(spec, (b1,)).beta_z_inf
                       - tn.neuron.sigmoid_approx_input_form(spec, b1))
                   for b1 in np.linspace(0.0, 1.0, 801))

    def dev_virtual_form(eps_z):
        spec = tn.inverter(20.0, eps_z)
        return max(abs(steady_from_virtual(spec, beta_v)
                       - tn.fermi_population(-eps_z * beta_v))
                   for beta_v in np.linspace(-8 / eps_z, 8 / eps_z, 801))

    ratio_linear = dev_input_form(0.1) / dev_input_form(0.05)
    ratio_quad = dev_virtual_form(0.1) / dev_virtual_form(0.05)
    ok = 1.8 <= ratio_linear <= 2.2 and 3.8 <= ratio_quad <= 4.2
    criterion(7, "sigmoid-limit deviation scales as O(eps_z)",
              ok, f"input-form ratio {ratio_linear:.3f}, "
                  f"virtual-form ratio {ratio_quad:.3f}")


def test_08_second_law():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_rate = math.inf
    for _ in range(1000):
        spec = random_neuron(rng)
        inputs = random_inputs(rng, spec)
        beta_z0 = float(rng.uniform(spec.beta_hot, spec.beta_cold))
        traj = tn.evolve_quasi_static(spec, inputs, beta_z0, 1e3)
        worst_rate = min(worst_rate, float(traj.sigma_dot.min()))

    spec = tn.inverter(20.0, 0.1)
    quiet = tn.evolve_quasi_static(spec, (0.5,), 0.5, 1e8).sigma[-1]
    loud = tn.evolve_quasi_static(spec, (1.0,), 0.5, 1e8).sigma[-1]
    elapsed = time.perf_counter() - start
    ok = worst_rate >= -1e-10 and 0.0 <= quiet <= 1e-6 * loud
    criterion(8, "second law on 1000 random draws; balanced input "
                 "dissipates < 1e-6 of the rail input",
              ok, f"min rate {worst_rate:.2e}, quiet/loud "
                  f"{quiet / loud:.2e}, {elapsed:.1f}s")


def test_09_tradeoff_monotonicity():
    start = time.perf_counter()
    enc = tn.Encoding(delta=0.1)
    points = tn.tradeoff_sweep("NOT", "eps1", [2.0, 5.0, 10.0, 20.0],
                               enc, spread=0.05, tau=1e8)
    xis = [p.avg_xi for p in points]
    sigmas = [p.avg_sigma for p in points]
    elapsed = time.perf_counter() - start
    ok = (all(b < a for a, b in zip(xis, xis[1:]))
          and all(b > a for a, b in zip(sigmas, sigmas[1:])))
    criterion(9, "error strictly falls and dissipation strictly rises "
                 "along the eps_1 grid",
              ok, f"xi {['%.1e' % x for x in xis]}, "
                  f"sigma {['%.3g' % s for s in sigmas]}, {elapsed:.1f}s")


def test_10_channel_closed_form_vs_monte_carlo():
    start = time.perf_counter()
    n_samples = 1_000_000
    enc = tn.Encoding(delta=0.1)
    worst_pull = 0.0
    for gate, alpha in (("NOT", 5.0), ("NOR", 5.0), ("MAJ3", 3.0)):
        spec = tn.preset(gate, tn.DesignConfig(alpha=alpha, eps_z=0.1))
        exact = tn.conditional_outputs(spec, enc, 0.05)
        mc = tn.mc_conditional_outputs(spec, enc, 0.05, n_samples, seed=31)
        for i in range(exact.p_y_given_x.shape[0]):
            for j in range(3):
                p = exact.p_y_given_x[i, j]
                se = math.sqrt(max(p * (1.0 - p), 1e-12) / n_samples)
                pull = abs(mc.p_y_given_x[i, j] - p) / se
                worst_pull = max(worst_pull, pull)
    elapsed = time.perf_counter() - start
    ok = worst_pull <= 3.0
    criterion(10, "Gaussian channel closed form within 3 standard errors "
                  "of Monte Carlo at N=1e6",
              ok, f"worst pull {worst_pull:.2f} SE, {elapsed:.1f}s")
