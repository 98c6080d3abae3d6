"""Span tracing for the benchmark's traced run.

`Tracer.install` replaces every public function of the concmeter layers,
and the public methods of their classes, by a wrapper that records a
span: name, start, end, parent span and op id. It then rebinds each name
a module bound with `from ... import` (such as `cli.run_circuit`,
`cavity.run_circuit` and `cli.simulate_shots`) to the same wrapper, so
nested calls between layers are caught. The benchmark opens one root
span, named `op`, around each call of `cli.main`.

Spans stay in flat arrays in memory until `write` saves them. A span's
self time is its duration minus its direct children's; summed over a
layer's spans it is the layer's self time, and the root spans' self time
is what no layer accounts for.
"""
from __future__ import annotations

import functools
import importlib
import types
from array import array
from time import perf_counter_ns

import numpy as np

LAYERS = ("cli", "protocol", "cavity", "estimation", "statevec", "gates", "concurrence")
ROOT = "op"


def _register_bytes(args, result) -> int:
    """Bytes of the amplitude arrays a register-producing call reads and
    writes, computed from their sizes (cache traffic is not measured)."""
    out = getattr(result, "amplitudes", None)
    if not isinstance(out, np.ndarray):
        return 0
    total = out.nbytes
    for a in args:
        amps = getattr(a, "amplitudes", a)
        if isinstance(amps, np.ndarray):
            total += amps.nbytes
    return total


class Tracer:
    def __init__(self):
        self.names = [ROOT]
        self.op_id = 0
        self._name = array("q")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("q")
        self._op = array("q")
        self._bytes = array("q")
        self._stack = [-1]
        # inputs of protocol.run_circuit, kept to count distinct states
        self.circuit_inputs = []

    def _open(self, name_id: int) -> int:
        idx = len(self._start)
        self._name.append(name_id)
        self._parent.append(self._stack[-1])
        self._op.append(self.op_id)
        self._bytes.append(0)
        self._end.append(0)
        self._stack.append(idx)
        self._start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self._end[idx] = perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        count_bytes = name.startswith("statevec.")
        circuit = name == "protocol.run_circuit"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if circuit:
                self.circuit_inputs.append(args[0] if args else kwargs.get("psi"))
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count_bytes:
                self._bytes[idx] = _register_bytes(args, result)
            return result

        return traced

    def install(self, package: str) -> None:
        modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
                elif isinstance(obj, type) and not issubclass(obj, BaseException):
                    self._wrap_methods(f"{layer}.{attr}", obj)
        for mod in (importlib.import_module(package), *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])

    def _wrap_methods(self, prefix: str, cls: type) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(obj, (classmethod, staticmethod)):
                setattr(cls, attr, type(obj)(self._wrap(f"{prefix}.{attr}", obj.__func__)))
            elif isinstance(obj, types.FunctionType):
                setattr(cls, attr, self._wrap(f"{prefix}.{attr}", obj))

    def root(self, fn, *args):
        """Call fn(*args) inside a root span of the current op."""
        idx = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("op,name,start_ns,end_ns,parent\n")
            for i in range(len(self._start)):
                fh.write(f"{self._op[i]},{self.names[self._name[i]]},"
                         f"{self._start[i]},{self._end[i]},{self._parent[i]}\n")

    def summary(self) -> dict:
        """Self time per layer, and calls, inclusive time and computed
        bytes per function, all in nanoseconds and summed over the run."""
        name = np.frombuffer(self._name, dtype=np.int64)
        parent = np.frombuffer(self._parent, dtype=np.int64)
        dur = (np.frombuffer(self._end, dtype=np.int64)
               - np.frombuffer(self._start, dtype=np.int64))
        nbytes = np.frombuffer(self._bytes, dtype=np.int64)
        nested = parent >= 0
        children = np.zeros(len(dur), dtype=np.int64)
        np.add.at(children, parent[nested], dur[nested])
        self_ns = dur - children
        calls = np.bincount(name, minlength=len(self.names))
        incl = np.bincount(name, weights=dur, minlength=len(self.names))
        self_by_name = np.bincount(name, weights=self_ns, minlength=len(self.names))
        bytes_by_name = np.bincount(name, weights=nbytes, minlength=len(self.names))
        layers = {layer: {"self_ns": 0.0, "calls": 0, "bytes": 0.0} for layer in (ROOT, *LAYERS)}
        functions = {}
        for i, full in enumerate(self.names):
            layer = layers[full.split(".")[0]]
            if full != ROOT:
                layer["calls"] += int(calls[i])
            layer["self_ns"] += float(self_by_name[i])
            layer["bytes"] += float(bytes_by_name[i])
            functions[full] = {"calls": int(calls[i]), "incl_ns": float(incl[i])}
        distinct = len({repr(psi) for psi in self.circuit_inputs})
        return {"layers": layers, "functions": functions,
                "root_ns": float(incl[0]), "distinct_circuit_inputs": distinct}
