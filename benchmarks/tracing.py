"""Span tracer that wraps tricoil's public functions from outside the package.

``Tracer.install`` replaces every public function and public method of the
layer modules with a wrapper that records a span ``(function, start, end,
parent)``.  The replacement is made in every ``tricoil`` module namespace
that holds the function, so ``from x import y`` bindings are traced too;
``uninstall`` puts the originals back.  Spans stay in memory until the run
ends.  A layer's self time is the duration of its spans minus the part of
each span that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np

LAYERS = ("config", "geometry", "magnetics", "circuit", "optimizer", "experiments", "oracle", "plots", "cli")
ROOT = "bench"  # the benchmark's own span around each operation
# which Observations method sees the arguments and result of a function or layer
_OBSERVED = {"optimizer.alternate": "alternate", "magnetics": "magnetics", "oracle": "oracle"}


class Tracer:
    def __init__(self):
        self.names = [f"{ROOT}.op"]
        self.layer_of = [ROOT]
        self.spans = []
        self._stack = []
        self._patches = []
        self.observed = Observations()

    def _wrap(self, fn, fid: int):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        kind = _OBSERVED.get(self.names[fid], _OBSERVED.get(self.layer_of[fid]))
        observer = None if kind is None else (lambda args, result: getattr(self.observed, kind)(args, result))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (fid, start, end, parent)
            if observer is not None:
                observer(args, result)
            return result

        return traced

    def install(self):
        """Wrap every public function and method of the layer modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        first_install = len(self.names) == 1
        fid = 1
        replaced = {}
        for layer in LAYERS:
            module = importlib.import_module(f"tricoil.{layer}")
            for name, obj in sorted(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    targets = [(module, name, obj, name)]
                elif inspect.isclass(obj):
                    targets = [
                        (obj, attr, member, f"{name}.{attr}")
                        for attr, member in sorted(vars(obj).items())
                        if not attr.startswith("_")
                        and (inspect.isfunction(member) or isinstance(member, (staticmethod, classmethod)))
                    ]
                else:
                    continue
                for owner, attr, member, qualname in targets:
                    if first_install:
                        self.names.append(f"{layer}.{qualname}")
                        self.layer_of.append(layer)
                    elif self.names[fid] != f"{layer}.{qualname}":
                        raise RuntimeError("module contents changed between installs")
                    if isinstance(member, (staticmethod, classmethod)):
                        wrapper = type(member)(self._wrap(member.__func__, fid))
                    else:
                        wrapper = self._wrap(member, fid)
                        replaced[id(member)] = (member, wrapper)
                    self._patches.append((owner, attr, member))
                    setattr(owner, attr, wrapper)
                    fid += 1
        # rebind ``from x import y`` copies held by other tricoil modules
        for modname, module in list(sys.modules.items()):
            if modname != "tricoil" and not modname.startswith("tricoil."):
                continue
            for name, obj in list(vars(module).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((module, name, obj))
                    setattr(module, name, hit[1])

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def op(self, fn, *args):
        """Run one benchmark operation under a root span."""
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (0, start, end, -1)

    def take(self):
        """Return the recorded spans and observations and start afresh."""
        spans, observed = list(self.spans), self.observed
        self.spans.clear()
        self.observed = Observations()
        return spans, observed


class Observations:
    """Counts taken from arguments and results at the layer boundaries."""

    def __init__(self):
        self.runs = []  # (matrix key, threshold, rounds, converged) per alternate call
        self.builds = 0
        self.distinct = set()
        self.reports = []  # samples of each oracle report

    def alternate(self, args, trace):
        key = np.asarray(args[0], dtype=float).tobytes()
        self.runs.append((key, trace.threshold, trace.iterations, trace.converged))

    def magnetics(self, args, result):
        if isinstance(result, np.ndarray) and result.shape[-2:] == (3, 3):
            blocks = result.reshape(-1, 3, 3)
            self.builds += len(blocks)
            self.distinct.update(block.tobytes() for block in blocks)

    def oracle(self, args, result):
        if hasattr(result, "claim") and hasattr(result, "samples"):
            self.reports.append(int(result.samples))


def summarize(tracer: Tracer, spans, observed: Observations) -> dict:
    """Per-layer self time and boundary calls, counters, and the span-sum check."""
    layer_of = tracer.layer_of
    child_time = [0.0] * len(spans)
    sibling_end = {}
    nested = True
    for fid, start, end, parent in spans:
        if parent < 0:
            continue
        _, p_start, p_end, _ = spans[parent]
        if start < max(p_start, sibling_end.get(parent, p_start)) or end > p_end:
            nested = False
        sibling_end[parent] = end
        child_time[parent] += end - start

    layers = (ROOT,) + LAYERS
    self_s = dict.fromkeys(layers, 0.0)
    calls = dict.fromkeys(layers, 0)
    fid_calls = [0] * len(tracer.names)
    pass_s = 0.0
    for i, (fid, start, end, parent) in enumerate(spans):
        layer = layer_of[fid]
        self_s[layer] += (end - start) - child_time[i]
        fid_calls[fid] += 1
        if parent < 0:
            pass_s += end - start
        elif layer_of[spans[parent][0]] != layer:
            calls[layer] += 1

    def count(name):
        return fid_calls[tracer.names.index(name)] if name in tracer.names else 0

    # Runs on one matrix differ only in their threshold; the run at the
    # smallest one holds every other run's rounds as a prefix.
    runs = observed.runs
    smallest = {}
    for key, threshold, _, _ in runs:
        smallest[key] = min(threshold, smallest.get(key, threshold))
    useful_rounds = sum(rounds for key, threshold, rounds, _ in runs if threshold == smallest[key])
    total_rounds = sum(r[2] for r in runs)
    samples = sum(observed.reports)
    return {
        "self_s": self_s,
        "calls": calls,
        "pass_s": pass_s,
        "self_sum_residual": abs(sum(self_s.values()) - pass_s) / pass_s if pass_s else 0.0,
        "nested": nested,
        "counters": {
            "optimizer.eig_calls": count("optimizer.symmetric_eig3"),
            "optimizer.alternate_calls": len(runs),
            "optimizer.rounds": total_rounds,
            "optimizer.converged_ratio": sum(r[3] for r in runs) / len(runs) if runs else 0.0,
            "optimizer.useful_round_ratio": (
                useful_rounds / total_rounds if total_rounds else 0.0
            ),
            "magnetics.calls": calls["magnetics"],
            "magnetics.unique_ratio": len(observed.distinct) / observed.builds if observed.builds else 0.0,
            "oracle.samples": samples,
            # one float64 triple per sample; computed from array sizes, not measured traffic
            "oracle.computed_bytes": 24 * samples,
        },
    }
