"""Span recorder for the traced benchmark run.

`Tracer.install()` replaces every public function of the thermoneuron layer
modules, at every name it is bound to inside the package, with a wrapper
that records one span per call: name, start, end and the span that was open
when the call began.  Methods of the package's classes are not wrapped, so
their time counts toward the layer of the function that called them.  No
code inside the package changes; `uninstall()` puts the originals back,
and a later `install()` the same wrappers again.

Spans are kept in memory as flat integer columns and written out once, at
the end of the run, by `write()`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

PACKAGE = "thermoneuron"
LAYERS = ("cli", "serialize", "designer", "network", "neuron", "virtual",
          "channel", "dynamics", "quantum")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of_name: list[int] = []
        self.name_col = array("i")
        self.parent_col = array("i")
        self.start_col = array("q")
        self.end_col = array("q")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object, object]] = []

    def __len__(self) -> int:
        return len(self.start_col)

    def _wrap(self, fn, layer: int):
        name_id = len(self.names)
        self.names.append(f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}")
        self.layer_of_name.append(layer)
        names, parents = self.name_col, self.parent_col
        starts, ends, stack = self.start_col, self.end_col, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Put the wrappers in place; they are built on the first call only."""
        if not self._patches:
            modules = [importlib.import_module(f"{PACKAGE}.{layer}")
                       for layer in LAYERS]
            wrappers = {}
            for layer, module in enumerate(modules):
                for attr, value in vars(module).items():
                    if (inspect.isfunction(value) and not attr.startswith("_")
                            and value.__module__ == module.__name__):
                        wrappers[value] = self._wrap(value, layer)
            for namespace in modules + [importlib.import_module(PACKAGE)]:
                for attr, value in vars(namespace).items():
                    if inspect.isfunction(value) and value in wrappers:
                        self._patches.append((namespace, attr, value, wrappers[value]))
        for namespace, attr, _, wrapper in self._patches:
            setattr(namespace, attr, wrapper)

    def uninstall(self) -> None:
        """Put the original functions back."""
        for namespace, attr, original, _ in self._patches:
            setattr(namespace, attr, original)

    def name_id(self, name: str) -> int:
        return self.names.index(name)

    def durations_ns(self):
        import numpy as np
        return (np.frombuffer(self.end_col, dtype=np.int64)
                - np.frombuffer(self.start_col, dtype=np.int64))

    def summary(self):
        """Per-name call counts and total time, and self time per layer (ns)."""
        import numpy as np
        dur = self.durations_ns().astype(float)
        names = np.frombuffer(self.name_col, dtype=np.int32)
        parents = np.frombuffer(self.parent_col, dtype=np.int32)
        has_parent = parents >= 0
        child_time = np.bincount(parents[has_parent], weights=dur[has_parent],
                                 minlength=len(dur))
        self_time = dur - child_time
        n_names = len(self.names)
        calls = np.bincount(names, minlength=n_names)
        total = np.bincount(names, weights=dur, minlength=n_names)
        layer = np.asarray(self.layer_of_name, dtype=np.int64)[names]
        layer_self = np.bincount(layer, weights=self_time, minlength=len(LAYERS))
        layer_calls = np.bincount(layer, minlength=len(LAYERS))
        return {
            "calls": {n: int(c) for n, c in zip(self.names, calls)},
            "total_ns": {n: float(t) for n, t in zip(self.names, total)},
            "layer_self_ns": {l: float(t) for l, t in zip(LAYERS, layer_self)},
            "layer_calls": {l: int(c) for l, c in zip(LAYERS, layer_calls)},
        }

    def children(self, idx: int, name: str) -> list[int]:
        """Indices of the spans named `name` whose parent is span `idx`."""
        want = self.name_id(name)
        return [i for i in range(idx + 1, len(self))
                if self.parent_col[i] == idx and self.name_col[i] == want]

    def write(self, path: str) -> None:
        import numpy as np
        np.savez(path, names=np.array(self.names),
                 layer_of_name=np.array([LAYERS[i] for i in self.layer_of_name]),
                 name=np.frombuffer(self.name_col, dtype=np.int32),
                 parent=np.frombuffer(self.parent_col, dtype=np.int32),
                 start_ns=np.frombuffer(self.start_col, dtype=np.int64),
                 end_ns=np.frombuffer(self.end_col, dtype=np.int64))
