"""In-memory span tracer for the package layers.

``Tracer.install`` wraps every public function of every layer module and
rebinds the wrapper at each module binding that refers to the original
(``phaselab.cones.classify``, ``phaselab.experiments.classify``, ...), so a
call made from inside another layer is a nested span too.  Spans stay in a
list until ``write`` and ``summary``; the tracer assumes the traced code
runs in one thread (the workloads run with ``threads = 1``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("linalg", "cones", "relations", "fock", "landau", "bridge", "experiments", "cli")


def _estimate_work(bound, result):
    # loops times steps: the number of path steps the estimator evaluated
    return bound.arguments["samples"] * bound.arguments["spec"].steps


def _eigs(bound, result):
    return bound.arguments["k"]


def _nnz(bound, result):
    return result.nnz


# work counters recorded at the same boundary as the span
COUNTERS = {
    "bridge.estimate": _estimate_work,
    "landau.low_spectrum": _eigs,
    "landau.landau_hamiltonian": _nnz,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        # (function id, parent span index, op index, start, end)
        self.spans: list[tuple] = []
        self.work: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (fid, parent, self.op, t0, t1)
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.work[name] += counter(bound, result)
            return result

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        modules = [importlib.import_module(f"phaselab.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._undo):
            setattr(mod, attr, obj)
        self._undo.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per function: calls, inclusive seconds and self seconds (the span
        minus the time its child spans cover)."""
        child = [0.0] * len(self.spans)
        for fid, parent, op, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0} for name in self.names}
        for (fid, parent, op, t0, t1), c in zip(self.spans, child):
            row = out[self.names[fid]]
            row["calls"] += 1
            row["incl_s"] += t1 - t0
            row["self_s"] += (t1 - t0) - c
        return out

    def write(self, path: Path) -> None:
        """Spans as CSV: span index, function, parent span, op, start, end."""
        with open(path, "w") as fh:
            fh.write("span,function,parent,op,start_s,end_s\n")
            for i, (fid, parent, op, t0, t1) in enumerate(self.spans):
                fh.write(f"{i},{self.names[fid]},{parent},{op},{t0:.9f},{t1:.9f}\n")


# functions whose own calls/self time are metrics (BENCHMARK.json per_layer)
PER_FUNCTION = {
    "bridge.estimate": ("calls", "self_s"),
    "bridge.gaussian_oracle": ("calls", "self_s"),
    "bridge.calibrate": ("self_s",),
    "landau.landau_hamiltonian": ("self_s",),
    "landau.magnetic_laplacian": ("self_s",),
    "landau.low_spectrum": ("self_s",),
    "landau.grid_strong_limit": ("self_s",),
    "cones.classify": ("calls", "self_s"),
    "cones.sample": ("calls", "self_s"),
    "cones.po_decompose": ("self_s",),
    "relations.graph_of": ("self_s",),
    "relations.compose": ("self_s",),
    "relations.potapov_relation": ("self_s",),
    "relations.limit_graph": ("self_s",),
    "relations.is_Unn": ("self_s",),
    "fock.drho": ("self_s",),
    "fock.h_A_operator": ("self_s",),
    "fock.strong_limit_run": ("self_s",),
    "fock.quantize_integral": ("self_s",),
    "fock.vacuum_expectation": ("self_s",),
    "linalg.expm": ("calls", "self_s"),
    "linalg.logm_principal": ("calls", "self_s"),
    "linalg.subspace_gap": ("calls", "self_s"),
    "cli.write_outputs": ("self_s",),
}


def layer_metrics(summary: dict, work: dict, traced_wall: float, untraced_wall: float,
                  nspans: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of BENCHMARK.json from one traced round."""

    def row(name):
        return summary.get(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})

    def rate(numerator, name):
        incl = row(name)["incl_s"]
        return numerator / incl if incl > 0 else 0.0

    m: dict[str, tuple[float, str]] = {}
    for name, fields in PER_FUNCTION.items():
        r = row(name)
        for f in fields:
            m[f"{name}.{f}"] = (r["calls"], "count") if f == "calls" else (r["self_s"], "s")
    m["bridge.estimate.path_steps_per_s"] = (rate(work.get("bridge.estimate", 0), "bridge.estimate"), "1/s")
    calls = row("bridge.gaussian_oracle")["calls"]
    m["bridge.gaussian_oracle.ms_per_call"] = (
        1e3 * row("bridge.gaussian_oracle")["incl_s"] / calls if calls else 0.0, "ms")
    m["landau.low_spectrum.eigs_per_s"] = (rate(work.get("landau.low_spectrum", 0), "landau.low_spectrum"), "1/s")
    m["landau.operator_nnz"] = (work.get("landau.landau_hamiltonian", 0), "count")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (
            sum(r["self_s"] for n, r in summary.items() if n.split(".")[0] == layer), "s")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    m["trace.spans"] = (nspans, "count")
    return m

