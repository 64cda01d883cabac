"""Machine files (JSON) and sweep results (CSV).

Machine files round-trip losslessly: floats are written with full repr
precision, keys are sorted, and unknown fields are rejected on input.
Every emitted file states the unit system (natural units, k_B = hbar = 1).
"""

from __future__ import annotations

import json
import math
from typing import Sequence

from .errors import ConfigError
from .network import NetworkSpec
from .neuron import NeuronSpec

__all__ = [
    "TOOL_VERSION",
    "UNITS_NOTE",
    "neuron_to_dict",
    "neuron_from_dict",
    "network_to_dict",
    "network_from_dict",
    "machine_to_document",
    "machine_from_document",
    "dump_machine",
    "load_machine",
    "format_csv",
]

TOOL_VERSION = "0.1.0"
UNITS_NOTE = "natural (k_B = hbar = 1)"

_NEURON_KEYS = ("n", "eps", "h", "beta0", "eps_z", "chi", "gamma", "mu",
                "mu_prime", "beta_r", "beta_hot", "beta_cold", "capacity")
_PROVENANCE_KEYS = ("weights", "alpha", "eps_z", "seed", "tool_version")


def _check_fields(d, fields: Sequence[str], where: str) -> None:
    """``d`` must be a JSON object holding exactly ``fields``."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object")
    _reject_unknown(d, fields, where)
    missing = sorted(set(fields) - set(d))
    if missing:
        raise ConfigError(f"{where} missing fields: {missing}")


def _reject_unknown(d: dict, allowed: Sequence[str], where: str) -> None:
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown fields in {where}: {unknown}")


def neuron_to_dict(spec: NeuronSpec) -> dict:
    return {
        "n": spec.n,
        "eps": list(spec.eps),
        "h": list(spec.h),
        "beta0": spec.beta0,
        "eps_z": spec.eps_z,
        "chi": spec.chi,
        "gamma": spec.gamma,
        "mu": spec.mu,
        "mu_prime": spec.mu_prime,
        "beta_r": spec.beta_r,
        "beta_hot": spec.beta_hot,
        "beta_cold": spec.beta_cold,
        "capacity": spec.capacity,
    }


def neuron_from_dict(d: dict) -> NeuronSpec:
    _check_fields(d, _NEURON_KEYS, "neuron spec")
    try:
        spec = NeuronSpec(eps=tuple(d["eps"]), h=tuple(d["h"]), beta0=d["beta0"],
                          eps_z=d["eps_z"], beta_r=d["beta_r"],
                          mu_prime=d["mu_prime"], chi=d["chi"], gamma=d["gamma"],
                          mu=d["mu"], beta_hot=d["beta_hot"],
                          beta_cold=d["beta_cold"], capacity=d["capacity"])
        if not (math.isfinite(spec.capacity) and spec.capacity > 0.0):
            raise ConfigError(f"reservoir capacity must be positive and finite, "
                              f"got {spec.capacity!r}")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed neuron spec: {exc}") from None
    if spec.n != d["n"]:
        raise ConfigError(f"inconsistent input count: n = {d['n']} but "
                          f"{len(spec.eps)} gaps")
    return spec


def network_to_dict(net: NetworkSpec) -> dict:
    return {
        "n_inputs": net.n_inputs,
        "layers": [[{"neuron": neuron_to_dict(nrn), "wiring": list(feed)}
                    for nrn, feed in zip(layer, wires)]
                   for layer, wires in zip(net.layers, net.wiring)],
    }


def network_from_dict(d: dict) -> NetworkSpec:
    _check_fields(d, ("n_inputs", "layers"), "network spec")
    layers, wiring = [], []
    try:
        for layer in d["layers"]:
            units, feeds = [], []
            for entry in layer:
                _check_fields(entry, ("neuron", "wiring"), "network layer entry")
                units.append(neuron_from_dict(entry["neuron"]))
                feeds.append(tuple(int(k) for k in entry["wiring"]))
            layers.append(tuple(units))
            wiring.append(tuple(feeds))
        n_inputs = int(d["n_inputs"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed network spec: {exc}") from None
    return NetworkSpec(n_inputs=n_inputs, layers=tuple(layers), wiring=tuple(wiring))


def machine_to_document(machine, provenance: dict) -> dict:
    """Wrap a neuron or network spec with provenance into a machine document."""
    _reject_unknown(provenance, _PROVENANCE_KEYS, "provenance")
    missing = sorted(set(_PROVENANCE_KEYS) - set(provenance))
    if missing:
        raise ConfigError(f"provenance missing fields: {missing}")
    if isinstance(machine, NeuronSpec):
        kind, spec = "neuron", neuron_to_dict(machine)
    elif isinstance(machine, NetworkSpec):
        kind, spec = "network", network_to_dict(machine)
    else:
        raise ConfigError(f"cannot serialize {type(machine).__name__}")
    return {"kind": kind, "units": UNITS_NOTE, "spec": spec,
            "provenance": dict(provenance)}


def machine_from_document(doc: dict):
    """Parse a machine document; returns (machine, provenance)."""
    if not isinstance(doc, dict):
        raise ConfigError("machine file must hold a JSON object")
    _reject_unknown(doc, ("kind", "units", "spec", "provenance"), "machine file")
    for key in ("kind", "spec", "provenance"):
        if key not in doc:
            raise ConfigError(f"machine file missing field '{key}'")
    _reject_unknown(doc["provenance"], _PROVENANCE_KEYS, "provenance")
    if doc["kind"] == "neuron":
        return neuron_from_dict(doc["spec"]), doc["provenance"]
    if doc["kind"] == "network":
        return network_from_dict(doc["spec"]), doc["provenance"]
    raise ConfigError(f"unknown machine kind '{doc['kind']}'")


def dump_machine(path, machine, provenance: dict) -> None:
    doc = machine_to_document(machine, provenance)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_machine(path):
    with open(path, "r", encoding="utf-8") as fh:
        return machine_from_document(json.load(fh))


def format_csv(header: Sequence[str], rows) -> str:
    """CSV text with a units comment, a header row, and 12-significant-digit floats."""
    lines = [f"# units: {UNITS_NOTE}", ",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, float):
                cells.append(f"{v:.12g}")
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
