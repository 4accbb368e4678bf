"""Span tracer that wraps netdp's public functions from outside the package.

Every public module-level function defined by a layer module is replaced by
a wrapper that records one span (function, start, end, parent span) per
call, and the wrapper is rebound under the same name in every loaded netdp
module that imported the original.  Functions added to a layer later are
therefore traced with no change here.  Spans are kept in flat arrays in
memory and written out once, when the traced pass ends.

A few wrappers also count work where it happens (walk steps, pair-loss
entries, SGD steps) from the values the call returns.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("core", "mechanisms", "protocols", "accountant", "empirical", "dpml", "cli")

# Functions whose calls are one epsilon evaluation of a noise calibration:
# the local and centralized regimes call their own epsilon function per grid
# point, the network regime reaches sgd_network_rdp once per grid point.
EPS_EVALS = ("dpml.local_sgd_epsilon", "dpml.centralized_sgd_epsilon", "accountant.sgd_network_rdp")


def _count_hook(name: str):
    """Work counter for ``name``, as (counter, increment-from-call), or None."""
    layer, func = name.split(".", 1)
    if layer == "protocols" and func.startswith("run_"):
        return "protocols.walk_steps", lambda args, kwargs, result: result.trace.T
    if layer == "empirical" and func.startswith("empirical_pair_loss"):
        return "empirical.pair_entries", lambda args, kwargs, result: result.n * (result.n - 1)
    if name == "dpml.train":
        return "dpml.sgd_steps", lambda args, kwargs, result: (kwargs.get("config") or args[0]).T
    return None


class Tracer:
    """Records spans of netdp's public functions in the current process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_of: array = array("i")
        self._parent: array = array("i")
        self._start: array = array("d")
        self._end: array = array("d")
        self._stack: list[int] = [-1]
        self.counters: dict[str, int] = {}

    def install(self) -> None:
        """Wrap every public function of each layer and rebind the wrappers."""
        modules = {layer: importlib.import_module(f"netdp.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, module in modules.items():
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue  # imported from another layer, wrapped there
                wrapped[fn] = self._wrap(fn, f"{layer}.{attr}")
        loaded = [m for key, m in list(sys.modules.items()) if key == "netdp" or key.startswith("netdp.")]
        for module in loaded:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(module, attr, wrapped[value])

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        name_of, parent, start, end, stack = self._name_of, self._parent, self._start, self._end, self._stack
        clock = time.perf_counter
        hook = _count_hook(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        if hook is None:
            return traced
        counter, increment = hook
        self.counters.setdefault(counter, 0)
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = traced(*args, **kwargs)
            counters[counter] += int(increment(args, kwargs, result))
            return result

        return counted

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self._name_of, dtype=np.int32).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.asarray(self.names), **self.spans())


def _outermost(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Mask of spans not nested in another span of the same set.

    Spans of one thread either nest or are disjoint, so after sorting by
    start a span is nested exactly when it starts before an earlier span ends.
    """
    order = np.argsort(starts, kind="stable")
    s, e = starts[order], ends[order]
    prev_end = np.concatenate(([-np.inf], np.maximum.accumulate(e)[:-1]))
    mask = np.empty(starts.size, dtype=bool)
    mask[order] = s >= prev_end
    return mask


def _inside(starts: np.ndarray, outer_starts: np.ndarray, outer_ends: np.ndarray) -> np.ndarray:
    """Mask of spans starting inside one of the disjoint outer intervals."""
    if outer_starts.size == 0:
        return np.zeros(starts.size, dtype=bool)
    order = np.argsort(outer_starts)
    os_, oe = outer_starts[order], outer_ends[order]
    k = np.searchsorted(os_, starts, side="right") - 1
    ok = k >= 0
    return ok & (starts < oe[np.maximum(k, 0)])


def layer_metrics(names: list[str], spans: dict[str, np.ndarray], counters: dict[str, int]) -> dict[str, float]:
    """Per-layer and per-function counts and times from one pass's spans.

    ``calls`` counts spans; ``busy_s`` is the time covered by a function's
    outermost spans; ``self_s`` is span time minus the time of the wrapped
    calls it made.  Every public function of every layer is reported.
    """
    name, parent = spans["name"], spans["parent"]
    dur = spans["end"] - spans["start"]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_time = dur - child_time
    calls = np.bincount(name, minlength=len(names))
    self_by_name = np.bincount(name, weights=self_time, minlength=len(names))

    out: dict[str, float] = {}
    for layer in LAYERS:
        ids = [i for i, nm in enumerate(names) if nm.split(".", 1)[0] == layer]
        out[f"{layer}.calls"] = int(calls[ids].sum())
        out[f"{layer}.self_s"] = float(self_by_name[ids].sum())
    for i, nm in enumerate(names):
        sel = name == i
        out[f"{nm}.calls"] = int(calls[i])
        out[f"{nm}.self_s"] = float(self_by_name[i])
        out[f"{nm}.busy_s"] = float(dur[sel][_outermost(spans["start"][sel], spans["end"][sel])].sum()) if calls[i] else 0.0
    out.update({key: int(value) for key, value in counters.items()})

    def nested_calls(outer: str, inner: tuple[str, ...]) -> int:
        """Calls of the ``inner`` functions made while ``outer`` was running."""
        if outer not in names:
            return 0
        o = name == names.index(outer)
        keep = _outermost(spans["start"][o], spans["end"][o])
        o_starts, o_ends = spans["start"][o][keep], spans["end"][o][keep]
        sel = np.isin(name, [names.index(nm) for nm in inner if nm in names])
        return int(_inside(spans["start"][sel], o_starts, o_ends).sum())

    evals = nested_calls("dpml.calibrate_regime", EPS_EVALS)
    sigmas = out["dpml.calibrate_regime.calls"]
    out["dpml.calibrate_regime.eps_evals"] = evals
    out["dpml.calibrate_regime.evals_per_sigma"] = evals / sigmas if sigmas else 0.0
    trains = nested_calls("dpml.tune_eta", ("dpml.train",))
    etas = out["dpml.tune_eta.calls"]
    out["dpml.tune_eta.trains"] = trains
    out["dpml.tune_eta.trains_per_eta"] = trains / etas if etas else 0.0
    return out
