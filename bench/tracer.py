"""Per-layer call tracing from outside the engine.

The engine looks its collaborators up as module attributes at call time (for
example ``irssim.sweep`` calls ``irs_rx_power`` through its own namespace), so
replacing those attributes with timing wrappers attributes every call to a
layer without touching the engine. A span's self time is its duration minus
the time covered by the traced spans it called, so the self times of all
layers add up to the time spent inside top-level traced calls.

Names are looked up in each traced module; a name a module lacks, or a
function that is never called, simply reads as zero calls. Besides calls,
each layer counts array elements (links, draws, rendered bytes, grid points),
so the counts keep their meaning when scalar calls become array calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from dataclasses import dataclass
from time import perf_counter

import numpy as np

LAYER_OF = {
    "run_distance_sweep": "sweep",
    "run_angle_sweep": "sweep",
    "compare_placement": "sweep",
    "monte_carlo_stats": "sweep",
    "distance": "geometry",
    "cascade_distances": "geometry",
    "conventional_rx_power": "channel.power",
    "irs_rx_power": "channel.power",
    "sample_fading_block": "channel.fading",
    "sample_fading": "channel.fading",
    "aggregate_interference": "sinr",
    "sinr": "sinr",
    "render_results": "output",
}
# layer -> name of its element count, besides calls and self time
ELEMENTS = {
    "sweep": "points",
    "geometry": None,
    "channel.power": "links",
    "channel.fading": "draws",
    "sinr": None,
    "output": "bytes",
}
# irssim.sinr is reached through sys.modules: the package attribute of that
# name is the sinr() function, which shadows the submodule
TRACED_MODULES = ("irssim.sweep", "irssim.sinr", "irssim.output")


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    elements: int = 0


def _points(result) -> int:
    """Grid points or (IRS, rx) pairs held by a sweep-layer result."""
    if isinstance(result, (list, tuple)):
        return sum(_points(item) for item in result)
    if hasattr(result, "rows"):
        return len(result.rows)
    if hasattr(result, "entries"):
        return sum(len(entry.per_rx_sinr_db) for entry in result.entries)
    return 0


def _bound_arguments(signature, args, kwargs) -> dict:
    if signature is None:
        return {}
    try:
        return signature.bind(*args, **kwargs).arguments
    except TypeError:
        return {}


def distinct_draws(ranges) -> int:
    """Number of distinct (seed, stream index) pairs covered by (seed, start, count) ranges."""
    total = 0
    by_seed = {}
    for seed, start, count in ranges:
        by_seed.setdefault(seed, []).append((start, start + count))
    for spans in by_seed.values():
        spans.sort()
        end = None
        for lo, hi in spans:
            if end is None or lo > end:
                total += hi - lo
                end = hi
            elif hi > end:
                total += hi - end
                end = hi
    return total


class Tracer:
    """Installs timing wrappers while used as a context manager.

    Call ``reset()`` before and ``snapshot()`` after each measured iteration.
    """

    def __init__(self) -> None:
        self.layers = {layer: LayerStats() for layer in ELEMENTS}
        self.draw_ranges = []  # (seed, first stream index, count) of each random fading call
        self._open = []  # child time accumulated by each open span
        self._saved = []

    def reset(self) -> None:
        for stats in self.layers.values():
            stats.calls, stats.self_s, stats.elements = 0, 0.0, 0
        self.draw_ranges.clear()

    def snapshot(self) -> dict:
        """Calls, self time and element count of each layer, and the useful share of draws."""
        values = {}
        for layer, element in ELEMENTS.items():
            stats = self.layers[layer]
            values[f"{layer}.calls"] = stats.calls
            values[f"{layer}.self_s"] = stats.self_s
            if element:
                values[f"{layer}.{element}"] = stats.elements
        draws = values["channel.fading.draws"]
        values["channel.fading.useful_ratio"] = (
            distinct_draws(self.draw_ranges) / draws if draws else 0.0)
        return values

    def __enter__(self) -> "Tracer":
        for module_name in TRACED_MODULES:
            importlib.import_module(module_name)
            module = sys.modules[module_name]
            for name, layer in LAYER_OF.items():
                fn = module.__dict__.get(name)
                if inspect.isfunction(fn):
                    self._saved.append((module, name, fn))
                    setattr(module, name, self._wrap(layer, fn))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, name, fn = self._saved.pop()
            setattr(module, name, fn)

    def _wrap(self, layer, fn):
        stats = self.layers[layer]
        count = getattr(self, "_count_" + layer.replace(".", "_"), None)
        try:
            signature = inspect.signature(fn)
        except (TypeError, ValueError):
            signature = None
        open_spans = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stats.calls += 1
                stats.self_s += elapsed - open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
            if count is not None:
                count(stats, signature, args, kwargs, result)
            return result

        return traced

    def _count_sweep(self, stats, signature, args, kwargs, result) -> None:
        stats.elements += _points(result)

    def _count_channel_power(self, stats, signature, args, kwargs, result) -> None:
        stats.elements += int(np.size(result))

    def _count_channel_fading(self, stats, signature, args, kwargs, result) -> None:
        arguments = _bound_arguments(signature, args, kwargs)
        model = arguments.get("model")
        if not getattr(model, "is_random", True):
            return
        count = int(np.size(result))
        stats.elements += count
        start = arguments.get("start_index", arguments.get("stream_index"))
        if model is not None and isinstance(start, (int, np.integer)):
            self.draw_ranges.append((model.seed, int(start), count))

    def _count_output(self, stats, signature, args, kwargs, result) -> None:
        if isinstance(result, str):
            stats.elements += len(result.encode("utf-8"))
