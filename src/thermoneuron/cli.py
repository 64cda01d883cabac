"""Command-line surface: design machines, simulate, sweep, and verify.

Exit codes: 0 on success, 1 when a verification fails, 2 for usage,
configuration or solver errors (one `error:` line, no traceback).  Every
command with a --seed is byte-deterministic.  Grids are evaluated in one
array pass.

Input rules, checked once by the parser's converters: every number must be
finite; counts (--seed, --inset-points, a grid's count) must be >= 0; a
grid, a sweep's factorial grid, --inset-points and the tradeoff inset
(grid x inset points) have at most MAX_GRID_POINTS points; --layers has at
most MAX_LAYERS widths of at most MAX_LAYER_WIDTH; negative values are
accepted in any float form (-1, -.5, -1e-3, -0.5:1:3); `design` (whose
--layers needs --table) and `verify` each need exactly one of --table or --gate.

`verify` reads its rows' means and p(error) from `channel.conditional_outputs`
(over `logic_rows`) and decodes them all in one `decode_array` call.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import warnings

import numpy as np

from . import channel as ch
from . import serialize as ser
from .designer import (BANDS, DesignConfig, Encoding, TruthTable, decode_array,
                       gate_table, perceptron_identity_residual,
                       train_perceptron, weights_to_neuron, PRESET_WEIGHTS)
from .dynamics import CSV_HEADER, evolve_full, evolve_quasi_static
from .errors import ConfigError, NotSeparableError, ThermoneuronError
from .network import NetworkSpec, eval_layers, train_network
from .neuron import NeuronSpec, steady_output, steady_response
from .virtual import virtual_gap

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2

# The most points a grid may have, alone or as the factorial product of a
# sweep's grids (a 1000 x 1000 surface).  A larger grid is refused before
# anything is allocated for it.
MAX_GRID_POINTS = 1_000_000

# The most layers, and units per layer, that `design --layers` trains.  Training
# runs at most 5,000 epochs; on XOR, one core, 256,256,1 took 7 s (41 MB) and
# the largest allowed topology, seven layers of 256 then 1, took 22 s (53 MB).
MAX_LAYERS, MAX_LAYER_WIDTH = 8, 256


def _encoding(args, machine) -> Encoding:
    """--delta and --band; bands that overlap on the machine's rails fail here."""
    enc = Encoding(delta=args.delta, band=args.band)
    enc.edges(machine)
    return enc


# Argument converters, passed to argparse as `type=`.  argparse turns an
# ArgumentTypeError into one "argument --x: <message>" usage error; any other
# caller must turn it into a ConfigError itself.

def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"want a finite number, got {text!r}")
    return value


def _count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"want an integer >= 0, got {text!r}")
    return value


def _check_points(counts, what: str) -> None:
    total = math.prod(counts)
    if total > MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(
            f"{what} has {total} points, more than {MAX_GRID_POINTS}")


def _check_option_points(option: str, counts, what: str) -> None:
    """`_check_points` for a bound a command checks across its arguments."""
    try:
        _check_points(counts, what)
    except argparse.ArgumentTypeError as exc:
        raise ConfigError(f"argument {option}: {exc}") from None


def _points(text: str) -> int:
    """A count of points (--inset-points), at most MAX_GRID_POINTS."""
    count = _count(text)
    _check_points([count], "the inset")
    return count


def _parse_grid(spec: str) -> list[float]:
    """'start:stop:count' -> linspace; 'a,b,c' -> explicit list."""
    if ":" not in spec:
        values = [_finite(tok) for tok in spec.split(",") if tok]
        _check_points([len(values)], f"grid {spec!r}")
        return values
    parts = spec.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"want start:stop:count, got {spec!r}")
    start, stop, count = _finite(parts[0]), _finite(parts[1]), _count(parts[2])
    if not math.isfinite(stop - start):
        raise argparse.ArgumentTypeError(f"stop - start overflows in {spec!r}")
    _check_points([count], f"grid {spec!r}")
    return np.linspace(start, stop, count).tolist()


def _grids(spec: str) -> list[list[float]]:
    """One grid per input, ';'-separated."""
    grids = [_parse_grid(g) for g in spec.split(";")]
    _check_points(map(len, grids), f"grid {spec!r}")
    return grids


def _widths(text: str) -> list[int]:
    try:
        widths = [int(s) for s in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"want comma-separated integers, got {text!r}") from None
    if len(widths) > MAX_LAYERS or max(widths) > MAX_LAYER_WIDTH:
        raise argparse.ArgumentTypeError(
            f"want at most {MAX_LAYERS} layers of at most {MAX_LAYER_WIDTH} "
            f"units, got {text!r}")
    return widths


def _table_file(path: str) -> TruthTable:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return TruthTable.from_text(fh.read())
    except (OSError, UnicodeDecodeError, ConfigError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _check_arity(machine, count: int, source: str) -> None:
    if count != machine.n:
        raise ConfigError(f"machine expects {machine.n} inputs, {source} gives {count}")


def _load_machine(path):
    try:
        return ser.load_machine(path)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ThermoneuronError(f"cannot read machine file {path}: {exc}")


def _write_csv(header, columns, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            ser.format_csv(header, columns, fh)
    else:
        ser.format_csv(header, columns, sys.stdout)


def cmd_design(args) -> int:
    if args.gate and args.layers is not None:
        raise ConfigError("argument --layers: not allowed with argument --gate")
    config = DesignConfig(alpha=args.alpha, eps_z=args.eps_z, seed=args.seed)
    if args.layers:
        machine = train_network(args.table, args.layers, config)
        weights_doc = [[list(np.concatenate(([b], w)))
                        for w, b in _network_unit_weights(machine, config)]]
    else:
        if args.gate:
            weights = np.asarray(PRESET_WEIGHTS[args.gate], dtype=float)
        else:
            try:
                weights = train_perceptron(args.table, config)
            except NotSeparableError as exc:
                raise ConfigError(f"{exc} (supply --layers to train a network "
                                  "for non-separable functions such as XOR)") from None
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
    _check_arity(machine, len(args.inputs), "--inputs")
    enc = _encoding(args, machine)
    if isinstance(machine, NeuronSpec):
        point = steady_output(machine, args.inputs)
        beta_v, final = point.beta_v, point.beta_z_inf
        payload = {"beta_v": beta_v, "beta_z_inf": final}
    else:
        layer_outputs = [o[0].tolist() for o in eval_layers(machine, [args.inputs])]
        final = layer_outputs[-1][-1]
        payload = {"layer_outputs": layer_outputs, "beta_z_inf": final}
    bit = int(decode_array(final, enc, machine))
    payload["decoded"] = bit if bit >= 0 else "invalid"
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
    _check_arity(machine, len(args.inputs), "--inputs")
    beta_z0 = args.beta_z0 if args.beta_z0 is not None else 0.5 * (
        machine.beta_hot + machine.beta_cold)
    # The steady target first: an uncalibrated machine fails before any output.
    target = steady_output(machine, args.inputs).beta_z_inf
    evolve = evolve_quasi_static if args.mode == "quasi" else evolve_full
    traj = evolve(machine, args.inputs, beta_z0, args.tau)
    _write_csv(CSV_HEADER, (traj.t, traj.beta_z, traj.j_collector,
                            traj.j_modulator, traj.sigma_dot, traj.sigma), args.out)
    print(f"endpoint beta_z = {traj.endpoint:.12g}; residual vs steady state = "
          f"{abs(traj.endpoint - target):.3e}", file=sys.stderr)
    return EXIT_OK


def cmd_sweep(args) -> int:
    machine, _ = _load_machine(args.machine)
    grids = args.grid * machine.n if len(args.grid) == 1 else args.grid
    _check_arity(machine, len(grids), "--grid")
    _check_option_points("--grid", map(len, grids), f"one grid for {machine.n} inputs")
    enc = _encoding(args, machine)
    # The factorial grid in CSV row order: the last input varies fastest.
    points = np.stack(np.meshgrid(*grids, indexing="ij"), axis=-1).reshape(-1, machine.n)
    if isinstance(machine, NeuronSpec):
        outputs, extra = steady_response(machine, points), ["beta_v"]
    else:
        outputs, extra = (ch.machine_response(machine, points),), []
    # Each axis value is formatted once; meshgrid repeats it in row order.
    axes = [np.array([f"{v:.12g}" for v in g], dtype=object) for g in grids]
    inputs = [m.reshape(-1) for m in np.meshgrid(*axes, indexing="ij")]
    # decode_array gives -1 for invalid, which picks the last label.
    decoded = np.array(["0", "1", "invalid"], dtype=object)[
        decode_array(outputs[-1], enc, machine)]
    header = [f"beta_{i + 1}" for i in range(machine.n)] + extra + ["beta_z_inf", "decoded"]
    _write_csv(header, (*inputs, *outputs, decoded), args.out)
    return EXIT_OK


def cmd_tradeoff(args) -> int:
    if args.inset:
        _check_option_points("--inset-points", (len(args.grid), args.inset_points),
                             "the inset (grid x inset points)")
    config = DesignConfig(eps_z=args.eps_z)
    enc = _encoding(args, NeuronSpec)   # the rails of every machine tradeoff builds
    points = ch.tradeoff_sweep(args.gate, args.knob, args.grid, enc,
                               spread=args.channel_width, tau=args.tau,
                               config=config)
    header = (args.knob, "avg_sigma", "avg_xi", "avg_invalid")
    rows = [(p.knob, p.avg_sigma, p.avg_xi, p.avg_invalid) for p in points]
    _write_csv(header, np.array(rows, dtype=float).reshape(-1, 4).T, args.out)
    if args.inset:
        machines = [ch.tradeoff_machine(args.gate, args.knob, value, config)
                    for value in args.grid]
        beta_1 = [np.linspace(m.beta_hot, m.beta_cold, args.inset_points)
                  for m in machines]
        sigmas = [ch.dissipation(m, np.repeat(b[:, None], m.n, axis=1), args.tau)
                  for m, b in zip(machines, beta_1)]
        inset_path = (args.out or "tradeoff") + ".inset.csv"
        _write_csv((args.knob, "beta_1", "sigma"),
                   (np.repeat(args.grid, args.inset_points), np.reshape(beta_1, -1),
                    np.reshape(sigmas, -1)), inset_path)
        print(f"wrote {inset_path}", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    machine, _ = _load_machine(args.machine)
    table = args.table or gate_table(args.gate)
    _check_arity(machine, table.n, "the table")
    enc = _encoding(args, machine)
    stats = ch.conditional_outputs(machine, enc, args.channel_width)
    failures = []
    for (bits, expected), final, got, probs in zip(
            table.rows(), stats.means.tolist(),
            decode_array(stats.means, enc, machine).tolist(),
            stats.p_y_given_x.tolist()):
        status = "ok" if got == expected else "FAIL"
        shown = got if got >= 0 else "invalid"
        print(f"row {' '.join(map(str, bits))} -> beta_z = {final: .6f}  "
              f"decoded = {shown!s:7}  expected = {expected}  "
              f"p(error) = {probs[1 - expected]:.3e}  [{status}]")
        if got != expected:
            failures.append(bits)
    total = 1 << table.n
    print(f"{total - len(failures)}/{total} rows correct")
    if failures:
        print("failed rows: " + "; ".join(" ".join(map(str, b)) for b in failures))
        return EXIT_VERIFY
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Any token starting '-<digit>' or '-.<digit>' is a value, so negative
        # numbers in exponent or range form (-1e-3, -0.5:1:3) are not read as
        # flags.  No option string starts that way.
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        # A usage error prints as one `error:` line, like every other one.
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="thermoneuron",
        description="Design and simulate thermodynamic neurons "
                    "(natural units, k_B = hbar = 1).")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common_decode(p, default_band="multiplicative"):
        p.add_argument("--delta", type=_finite, default=0.1,
                       help="decoding tolerance (default 0.1)")
        p.add_argument("--band", choices=BANDS, default=default_band,
                       help=f"decoding band rule (default {default_band})")

    p = sub.add_parser("design", help="compile a gate or truth table to a machine")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--gate", choices=sorted(PRESET_WEIGHTS))
    src.add_argument("--table", type=_table_file, help="path to a truth-table file")
    p.add_argument("--alpha", type=_finite, default=20.0)
    p.add_argument("--eps-z", dest="eps_z", type=_finite, default=0.1)
    p.add_argument("--seed", type=_count, default=0)
    p.add_argument("--layers", type=_widths,
                   help="comma-separated layer widths for networks")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("steady", help="exact steady-state response")
    p.add_argument("machine")
    p.add_argument("--inputs", nargs="+", type=_finite, required=True)
    p.add_argument("--json", action="store_true")
    add_common_decode(p, default_band="additive")
    p.set_defaults(func=cmd_steady)

    p = sub.add_parser("simulate", help="time evolution of the output temperature")
    p.add_argument("machine")
    p.add_argument("--inputs", nargs="+", type=_finite, required=True)
    p.add_argument("--tau", type=_finite, default=1e8)
    p.add_argument("--mode", choices=("quasi", "full"), default="quasi")
    p.add_argument("--beta-z0", dest="beta_z0", type=_finite, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="transfer-characteristic surface")
    p.add_argument("machine")
    p.add_argument("--grid", type=_grids, required=True,
                   help="start:stop:count or list; ';'-separated per input")
    p.add_argument("--out", default=None)
    add_common_decode(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("tradeoff", help="dissipation-vs-error curve")
    p.add_argument("--gate", default="NOT", choices=sorted(PRESET_WEIGHTS))
    p.add_argument("--knob", choices=ch.TRADEOFF_KNOBS, default="eps1")
    p.add_argument("--grid", type=_parse_grid, required=True)
    p.add_argument("--tau", type=_finite, default=1e8)
    p.add_argument("--C", dest="channel_width", type=_finite, default=0.05,
                   help="Gaussian response width (default 0.05)")
    p.add_argument("--eps-z", dest="eps_z", type=_finite, default=0.1)
    p.add_argument("--inset", action="store_true",
                   help="also emit per-input dissipation curves")
    p.add_argument("--inset-points", type=_points, default=21)
    p.add_argument("--out", default=None)
    add_common_decode(p)
    p.set_defaults(func=cmd_tradeoff)

    p = sub.add_parser("verify", help="check a machine against a truth table")
    p.add_argument("machine")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--table", type=_table_file, help="path to a truth-table file")
    src.add_argument("--gate")
    p.add_argument("--C", dest="channel_width", type=_finite, default=0.05)
    add_common_decode(p, default_band="additive")
    p.set_defaults(func=cmd_verify)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    # A warning prints as one line, like an error; the filters stay as they are.
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            args = build_parser().parse_args(argv)
            return args.func(args)
        except SystemExit as exc:   # --help
            return int(exc.code) if exc.code is not None else EXIT_USAGE
        except (ThermoneuronError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
