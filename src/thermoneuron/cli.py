"""Command-line surface: design machines, simulate, sweep, and verify.

Exit codes: 0 on success, 1 when a verification fails, 2 for usage or
configuration errors (one `error:` line, no traceback).  Every command
with a --seed is byte-deterministic.  Grids are evaluated in one array
pass; THERMONEURON_THREADS is ignored.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

import numpy as np

from . import channel as ch
from . import serialize as ser
from .designer import (DesignConfig, TruthTable, gate_table, preset,
                       perceptron_identity_residual, train_perceptron,
                       weights_to_neuron, PRESET_WEIGHTS)
from .dynamics import CSV_HEADER, evolve_full, evolve_quasi_static
from .errors import ConfigError, NotSeparableError, ThermoneuronError
from .network import NetworkSpec, eval_network, train_network
from .neuron import NeuronSpec, steady_output, steady_response
from .virtual import virtual_gap

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2


def _machine_rails(machine) -> tuple[float, float]:
    spec = machine.layers[0][0] if isinstance(machine, NetworkSpec) else machine
    return spec.beta_hot, spec.beta_cold


def _encoding(args, machine=None, band=None) -> ch.Encoding:
    rails = _machine_rails(machine) if machine is not None else (0.0, 1.0)
    return ch.Encoding(beta_hot=rails[0], beta_cold=rails[1],
                       delta=args.delta, band=band or args.band)


def _bit_label(beta_z: float, enc: ch.Encoding):
    bit = ch.decode(beta_z, enc)
    return bit if bit is not None else "invalid"


def _parse_numbers(tokens, what: str) -> list[float]:
    """Floats from command-line tokens; a non-number or NaN is a usage error."""
    try:
        values = [float(tok) for tok in tokens]
    except ValueError as exc:
        raise ConfigError(f"bad {what}: {exc}") from None
    if any(math.isnan(v) for v in values):
        raise ConfigError(f"bad {what}: NaN is not allowed")
    return values


def _design_config(args) -> DesignConfig:
    return DesignConfig(alpha=args.alpha, eps_z=args.eps_z, seed=args.seed)


def _load_machine(path):
    try:
        return ser.load_machine(path)
    except (OSError, json.JSONDecodeError) as exc:
        raise ThermoneuronError(f"cannot read machine file {path}: {exc}")


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_design(args) -> int:
    config = _design_config(args)
    if args.gate:
        weights = np.asarray(PRESET_WEIGHTS[args.gate.upper()], dtype=float)
        machine = preset(args.gate, config)
        weights_doc = [list(weights)]
    else:
        try:
            with open(args.table, "r", encoding="utf-8") as fh:
                table = TruthTable.from_text(fh.read())
        except OSError as exc:
            print(f"error: cannot read table: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if args.layers:
            try:
                topology = [int(s) for s in args.layers.split(",")]
            except ValueError:
                raise ConfigError(f"bad --layers '{args.layers}': want "
                                  "comma-separated integers") from None
            machine = train_network(table, topology, config)
            weights_doc = [[list(np.concatenate(([b], w)))
                            for w, b in _network_unit_weights(machine, config)]]
        else:
            try:
                weights = train_perceptron(table, config)
            except NotSeparableError as exc:
                print(f"error: {exc} (supply --layers to train a network "
                      "for non-separable functions such as XOR)", file=sys.stderr)
                return EXIT_USAGE
            machine = weights_to_neuron(weights, config)
            weights_doc = [list(weights)]

    provenance = {"weights": weights_doc, "alpha": config.alpha,
                  "eps_z": config.eps_z, "seed": config.seed,
                  "tool_version": ser.TOOL_VERSION}
    ser.dump_machine(args.out, machine, provenance)
    for line in _design_report(machine, weights_doc, config):
        print(line)
    print(f"wrote {args.out}")
    return EXIT_OK


def _network_unit_weights(net: NetworkSpec, config: DesignConfig):
    # Recover (w, b) per unit from the compiled gaps for provenance only.
    out = []
    for layer in net.layers:
        for nrn in layer:
            signs = [1.0 if b == 0 else -1.0 for b in nrn.h]
            w = [s * e / config.alpha for s, e in zip(signs[1:], nrn.eps[1:])]
            b = signs[0] * nrn.beta0 * nrn.eps[0] / config.alpha
            out.append((np.array(w), b))
    return out


def _design_report(machine, weights_doc, config):
    lines = []
    if isinstance(machine, NeuronSpec):
        resonance = abs(-virtual_gap(machine.h, machine.eps) - machine.eps_z)
        resid = perceptron_identity_residual(
            machine, np.asarray(weights_doc[0], dtype=float), config.alpha)
        lines.append(f"resonance check: |virtual gap - eps_z| = {resonance:.3e}")
        lines.append(f"perceptron identity residual: {resid:.3e}")
        lines.append(f"h = {list(machine.h)}, eps_z(machine) = {machine.eps_z:.12g}")
    else:
        widths = [len(layer) for layer in machine.layers]
        lines.append(f"network layers: {widths}")
        for li, layer in enumerate(machine.layers):
            for ni, nrn in enumerate(layer):
                gap = abs(-virtual_gap(nrn.h, nrn.eps) - nrn.eps_z)
                lines.append(f"  layer {li} unit {ni}: resonance residual {gap:.3e}")
    return lines


def cmd_steady(args) -> int:
    machine, _ = _load_machine(args.machine)
    inputs = _parse_numbers(args.inputs, "--inputs")
    if len(inputs) != ch.machine_arity(machine):
        raise ThermoneuronError(
            f"machine expects {ch.machine_arity(machine)} inputs, got {len(inputs)}")
    enc = _encoding(args, machine)
    if isinstance(machine, NeuronSpec):
        point = steady_output(machine, inputs)
        beta_v, final = point.beta_v, point.beta_z_inf
        payload = {"beta_v": beta_v, "beta_z_inf": final}
    else:
        response = eval_network(machine, inputs)
        final = response.final
        payload = {"layer_outputs": [list(o) for o in response.layer_outputs],
                   "beta_z_inf": final}
    payload["decoded"] = _bit_label(final, enc)
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        if "beta_v" in payload:
            print(f"beta_v     = {payload['beta_v']:.12g}")
        else:
            for li, outs in enumerate(payload["layer_outputs"]):
                print(f"layer {li} outputs = "
                      + ", ".join(f"{v:.12g}" for v in outs))
        print(f"beta_z_inf = {final:.12g}")
        print(f"decoded    = {payload['decoded']}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    machine, _ = _load_machine(args.machine)
    if not isinstance(machine, NeuronSpec):
        raise ThermoneuronError("simulate works on single neurons")
    inputs = _parse_numbers(args.inputs, "--inputs")
    if len(inputs) != machine.n:
        raise ThermoneuronError(
            f"machine expects {machine.n} inputs, got {len(inputs)}")
    beta_z0 = args.beta_z0 if args.beta_z0 is not None else 0.5 * (
        machine.beta_hot + machine.beta_cold)
    evolve = evolve_quasi_static if args.mode == "quasi" else evolve_full
    traj = evolve(machine, inputs, beta_z0, args.tau)
    rows = zip(traj.t, traj.beta_z, traj.j_collector, traj.j_modulator,
               traj.sigma_dot, traj.sigma)
    _write_or_print(ser.format_csv(CSV_HEADER, rows), args.out)
    target = steady_output(machine, inputs).beta_z_inf
    print(f"endpoint beta_z = {traj.endpoint:.12g}; residual vs steady state = "
          f"{abs(traj.endpoint - target):.3e}", file=sys.stderr)
    return EXIT_OK


def _parse_grid(spec: str) -> list[float]:
    """'start:stop:count' -> linspace; 'a,b,c' -> explicit list."""
    what = f"grid '{spec}'"
    if ":" not in spec:
        return _parse_numbers([tok for tok in spec.split(",") if tok], what)
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"bad {what}: want start:stop:count")
    start, stop = _parse_numbers(parts[:2], what)
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigError(f"bad {what}: start and stop must be finite")
    try:
        count = int(parts[2])
    except ValueError:
        raise ConfigError(f"bad {what}: count must be an integer") from None
    if count < 0:
        raise ConfigError("grid count must be non-negative")
    return np.linspace(start, stop, count).tolist()


def cmd_sweep(args) -> int:
    machine, _ = _load_machine(args.machine)
    arity = ch.machine_arity(machine)
    grids = [_parse_grid(g) for g in args.grid.split(";")]
    if len(grids) == 1 and arity > 1:
        grids = grids * arity
    if len(grids) != arity:
        raise ThermoneuronError(
            f"need one grid per input ({arity}), got {len(grids)}")
    enc = _encoding(args, machine)
    # The factorial grid in CSV row order: the last input varies fastest.
    points = np.stack(np.meshgrid(*grids, indexing="ij"), axis=-1).reshape(-1, arity)
    if isinstance(machine, NeuronSpec):
        columns, extra = (points, *steady_response(machine, points)), ["beta_v"]
    else:
        columns, extra = (points, ch.machine_response(machine, points)), []
    header = [f"beta_{i + 1}" for i in range(arity)] + extra + ["beta_z_inf", "decoded"]
    # Rows are built one at a time as format_csv consumes them.
    rows = ([*row, _bit_label(row[-1], enc)]
            for row in zip(*np.column_stack(columns).T.tolist()))
    _write_or_print(ser.format_csv(header, rows), args.out)
    return EXIT_OK


def cmd_tradeoff(args) -> int:
    grid = _parse_grid(args.grid)
    enc = _encoding(args)
    config = DesignConfig(eps_z=args.eps_z, seed=args.seed)
    points = ch.tradeoff_sweep(args.gate, args.knob, grid, enc,
                               spread=args.channel_width, tau=args.tau,
                               config=config)
    header = (args.knob, "avg_sigma", "avg_xi", "avg_invalid")
    rows = [(p.knob, p.avg_sigma, p.avg_xi, p.avg_invalid) for p in points]
    _write_or_print(ser.format_csv(header, rows), args.out)
    if args.inset:
        inset_rows = []
        for value in grid:
            from .neuron import inverter
            machine = (inverter(eps_input=float(value), beta0=0.5,
                                eps_z=config.eps_z, **config.physical())
                       if args.knob == "eps1"
                       else preset(args.gate, replace(config, alpha=float(value))))
            for beta_1 in np.linspace(enc.beta_hot, enc.beta_cold, args.inset_points):
                traj = evolve_quasi_static(
                    machine, [beta_1] * ch.machine_arity(machine),
                    0.5 * (enc.beta_hot + enc.beta_cold), args.tau)
                inset_rows.append((float(value), float(beta_1),
                                   float(traj.sigma[-1])))
        inset_path = (args.out or "tradeoff") + ".inset.csv"
        with open(inset_path, "w", encoding="utf-8") as fh:
            fh.write(ser.format_csv((args.knob, "beta_1", "sigma"), inset_rows))
        print(f"wrote {inset_path}", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    machine, _ = _load_machine(args.machine)
    if args.table:
        try:
            with open(args.table, "r", encoding="utf-8") as fh:
                table = TruthTable.from_text(fh.read())
        except OSError as exc:
            print(f"error: cannot read table: {exc}", file=sys.stderr)
            return EXIT_USAGE
    elif args.gate:
        table = gate_table(args.gate)
    else:
        print("error: verify needs --table or --gate", file=sys.stderr)
        return EXIT_USAGE
    if table.n != ch.machine_arity(machine):
        raise ThermoneuronError(
            f"table arity {table.n} != machine arity {ch.machine_arity(machine)}")
    enc = _encoding(args, machine, band=args.band)
    finals = ch.machine_response(
        machine, [[ch.encode(b, enc) for b in bits] for bits, _ in table.rows()])
    failures = []
    for (bits, expected), final in zip(table.rows(), finals.tolist()):
        got = ch.decode(final, enc)
        p0, p1, pinv = ch.gaussian_band_probs(final, args.channel_width, enc)
        p_err = (p0, p1)[1 - expected]
        status = "ok" if got == expected else "FAIL"
        shown = got if got is not None else "invalid"
        print(f"row {' '.join(map(str, bits))} -> beta_z = {final: .6f}  "
              f"decoded = {shown!s:7}  expected = {expected}  "
              f"p(error) = {p_err:.3e}  [{status}]")
        if got != expected:
            failures.append(bits)
    total = 1 << table.n
    print(f"{total - len(failures)}/{total} rows correct")
    if failures:
        print("failed rows: " + "; ".join(" ".join(map(str, b)) for b in failures))
        return EXIT_VERIFY
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermoneuron",
        description="Design and simulate thermodynamic neurons "
                    "(natural units, k_B = hbar = 1).")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common_decode(p, default_band="multiplicative"):
        p.add_argument("--delta", type=float, default=0.1,
                       help="decoding tolerance (default 0.1)")
        p.add_argument("--band", choices=ch.BANDS, default=default_band,
                       help=f"decoding band rule (default {default_band})")

    p = sub.add_parser("design", help="compile a gate or truth table to a machine")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--gate", choices=sorted(PRESET_WEIGHTS))
    src.add_argument("--table", help="path to a truth-table file")
    p.add_argument("--alpha", type=float, default=20.0)
    p.add_argument("--eps-z", dest="eps_z", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--layers", help="comma-separated layer widths for networks")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("steady", help="exact steady-state response")
    p.add_argument("machine")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--json", action="store_true")
    add_common_decode(p, default_band="additive")
    p.set_defaults(func=cmd_steady)

    p = sub.add_parser("simulate", help="time evolution of the output temperature")
    p.add_argument("machine")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--tau", type=float, default=1e8)
    p.add_argument("--mode", choices=("quasi", "full"), default="quasi")
    p.add_argument("--beta-z0", dest="beta_z0", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="transfer-characteristic surface")
    p.add_argument("machine")
    p.add_argument("--grid", required=True,
                   help="start:stop:count or list; ';'-separated per input")
    p.add_argument("--out", default=None)
    add_common_decode(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("tradeoff", help="dissipation-vs-error curve")
    p.add_argument("--gate", default="NOT", choices=sorted(PRESET_WEIGHTS))
    p.add_argument("--knob", choices=("eps1", "alpha"), default="eps1")
    p.add_argument("--grid", required=True)
    p.add_argument("--tau", type=float, default=1e8)
    p.add_argument("--C", dest="channel_width", type=float, default=0.05,
                   help="Gaussian response width (default 0.05)")
    p.add_argument("--eps-z", dest="eps_z", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--inset", action="store_true",
                   help="also emit per-input dissipation curves")
    p.add_argument("--inset-points", type=int, default=21)
    p.add_argument("--out", default=None)
    add_common_decode(p)
    p.set_defaults(func=cmd_tradeoff)

    p = sub.add_parser("verify", help="check a machine against a truth table")
    p.add_argument("machine")
    p.add_argument("--table", default=None)
    p.add_argument("--gate", default=None)
    p.add_argument("--C", dest="channel_width", type=float, default=0.05)
    add_common_decode(p, default_band="additive")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except ThermoneuronError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
