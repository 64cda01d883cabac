"""Machine files (JSON) and sweep results (CSV).

Machine files round-trip losslessly: floats are written with full repr
precision, keys are sorted, and unknown fields are rejected on input.
Every emitted file states the unit system (natural units, k_B = hbar = 1).
"""

from __future__ import annotations

import dataclasses
import json
from typing import Sequence, TextIO

import numpy as np

from .errors import ConfigError, StructuralError
from .network import NetworkSpec
from .neuron import NeuronSpec
from .quantum import _distinct

TOOL_VERSION = "0.1.0"
UNITS_NOTE = "natural (k_B = hbar = 1)"
CSV_BLOCK = 4096

# A neuron spec is stored as its dataclass fields plus the input count "n".
_NEURON_FIELDS = tuple(f.name for f in dataclasses.fields(NeuronSpec))
_PROVENANCE_KEYS = ("weights", "alpha", "eps_z", "seed", "tool_version")


# The JSON type of each spec field, so that no string, boolean or fraction is
# coerced into a gap, a bit or an index.  `type(v) is int` rejects booleans.
def _is_int(v) -> bool:
    return type(v) is int


def _is_number(v) -> bool:
    return type(v) in (int, float)


def _list_of(ok):
    return lambda v: isinstance(v, list) and all(map(ok, v))


_FIELD_TYPES = {name: (_is_number, "a number") for name in _NEURON_FIELDS} | {
    "eps": (_list_of(_is_number), "a list of numbers"),
    "h": (_list_of(lambda v: _is_int(v) and v in (0, 1)), "a list of the integers 0 and 1"),
    "n": (_is_int, "an integer"),
    "n_inputs": (_is_int, "an integer"),
    "wiring": (_list_of(_is_int), "a list of integers"),
}


def _check_fields(d, fields: Sequence[str], where: str) -> None:
    """``d`` must be a JSON object holding exactly ``fields``, each of the JSON
    type `_FIELD_TYPES` gives it."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object")
    _reject_unknown(d, fields, where)
    missing = sorted(set(fields) - set(d))
    if missing:
        raise ConfigError(f"{where} missing fields: {missing}")
    for name in (f for f in fields if f in _FIELD_TYPES):
        ok, want = _FIELD_TYPES[name]
        if not ok(d[name]):
            raise ConfigError(f"{where} field '{name}' must be {want}")


def _reject_unknown(d: dict, allowed: Sequence[str], where: str) -> None:
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown fields in {where}: {unknown}")


def neuron_to_dict(spec: NeuronSpec) -> dict:
    fields = {name: getattr(spec, name) for name in _NEURON_FIELDS}
    return fields | {"n": spec.n, "eps": list(spec.eps), "h": list(spec.h)}


def neuron_from_dict(d: dict) -> NeuronSpec:
    _check_fields(d, ("n",) + _NEURON_FIELDS, "neuron spec")
    try:
        spec = NeuronSpec(**{name: d[name] for name in _NEURON_FIELDS})
    except (StructuralError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed neuron spec: {exc}") from None
    if spec.n != d["n"]:
        raise ConfigError(f"inconsistent input count: n = {d['n']} but "
                          f"{len(spec.eps)} gaps give {spec.n} inputs")
    return spec


def network_to_dict(net: NetworkSpec) -> dict:
    return {
        "n_inputs": net.n,
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
                feeds.append(tuple(entry["wiring"]))
            layers.append(tuple(units))
            wiring.append(tuple(feeds))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed network spec: {exc}") from None
    return NetworkSpec(n=d["n_inputs"], layers=tuple(layers), wiring=tuple(wiring))


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
    if not isinstance(doc["provenance"], dict):
        raise ConfigError("provenance must be a JSON object")
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


def _format_floats(col: np.ndarray) -> np.ndarray:
    """Each distinct float64 bit pattern of `col` formatted once, gathered back."""
    values, inverse = _distinct(col)
    return np.array(list(map("{:.12g}".format, values.tolist())), dtype=object)[inverse]


def format_csv(header: Sequence[str], columns: Sequence, out: TextIO) -> None:
    """Write `columns` (one per header field, of one length) to `out` as CSV: a
    units comment, the header row, then the rows in blocks of `CSV_BLOCK`, so no
    full list of row strings is held.  Float columns are written with 12
    significant digits, each distinct value once (by bit pattern: -0.0 is "-0");
    any other column must hold strings, written as they are.
    """
    columns = [_format_floats(c) if c.dtype.kind == "f" else c for c in map(np.asarray, columns)]
    out.write(f"# units: {UNITS_NOTE}\n{','.join(header)}\n")
    for start in range(0, len(columns[0]), CSV_BLOCK):
        cells = [col[start:start + CSV_BLOCK].tolist() for col in columns]
        out.write("\n".join(map(",".join, zip(*cells, strict=True))) + "\n")
