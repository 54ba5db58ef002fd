"""Spans around lipcot's module-level functions, recorded from outside.

A traced child replaces each function in ``TARGETS`` with a wrapper that
records a span (name, start, end, parent span, failed) in memory. Every
module attribute that refers to the original function is replaced, so
calls through ``from x import y`` names are seen too. Nothing inside the
package is edited. Spans are written out when the child ends, and reduced
to per-function and per-layer metrics:

- ``<span>.calls``, ``.failed``, ``.s`` (inclusive), ``.self_s`` and
  ``.us_per_call`` for every span name;
- ``<layer>.self_s``: span time minus the time of child spans, summed over
  the layer's spans;
- ``bytes``, ``iterations``, ``windows`` and ``skipped`` read off the
  arguments or results of the functions that have them;
- ``peak_alloc_mb`` from ``tracemalloc``, only in the allocation-traced
  child, because tracemalloc slows the code it watches.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
import tracemalloc

# layer module -> wrapped functions; "_util" is reported as layer "util"
TARGETS = {
    "cli": ("cmd_train", "cmd_encode", "cmd_decode"),
    "pipeline": (
        "read_series_csv",
        "format_series_csv",
        "fit_corpus",
        "encode_series",
        "decode_sequence",
    ),
    "lpc_core": ("fit_burg_warped", "poles", "synthesize", "to_conventional_tf"),
    "latent": ("features", "latent_to_model"),
    "codebook": (
        "kmeans_fit",
        "train_codebook",
        "encode_vector",
        "decode_token",
        "save_codebook",
        "load_codebook",
    ),
    "_util": ("write_text_atomic",),
}

ALLOC_TRACED = frozenset({"pipeline.read_series_csv", "codebook.kmeans_fit"})


def _attributes(name, args, result) -> dict:
    """Work counts a span carries, read from its arguments or result."""
    if name == "pipeline.read_series_csv":
        return {"bytes": os.path.getsize(args[0])}
    if name == "pipeline.format_series_csv":
        return {"bytes": len(result)}
    if name == "util.write_text_atomic":
        return {"bytes": len(args[1])}
    if name == "codebook.kmeans_fit":
        return {"iterations": len(result[2])}
    if name == "pipeline.fit_corpus":
        return {"windows": len(result[0]) + result[1], "skipped": result[1]}
    return {}


def _span_name(layer: str, function: str) -> str:
    return f"{layer.lstrip('_')}.{function.removeprefix('cmd_')}"


class Tracer:
    """In-memory span recorder for one single-threaded child process."""

    def __init__(self, alloc: bool):
        self.alloc = alloc
        self.spans = []  # [name, start_ns, end_ns, parent index or -1, failed, attributes]
        self._stack = []

    def _wrap(self, name, function):
        measure_alloc = self.alloc and name in ALLOC_TRACED

        @functools.wraps(function)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0, 0, parent, 0, {}]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            if measure_alloc:
                tracemalloc.start()
            span[1] = time.perf_counter_ns()
            try:
                result = function(*args, **kwargs)
            except BaseException:
                span[4] = 1
                raise
            finally:
                span[2] = time.perf_counter_ns()
                if measure_alloc:
                    span[5]["peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                self._stack.pop()
            span[5].update(_attributes(name, args, result))
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "lipcot" or n.startswith("lipcot.")]
        for layer, functions in TARGETS.items():
            owner = importlib.import_module(f"lipcot.{layer}")
            for function in functions:
                original = getattr(owner, function)
                wrapper = self._wrap(_span_name(layer, function), original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)

    def metrics(self, seconds=lambda start, end: end - start) -> dict:
        """Per-span and per-layer figures.

        ``seconds(start, end)`` gives the time of a span from its
        ``perf_counter`` bounds in seconds.
        """
        took = [seconds(start / 1e9, end / 1e9) for _, start, end, _, _, _ in self.spans]
        inner = [0.0] * len(self.spans)
        for (_, _, _, parent, _, _), span_s in zip(self.spans, took):
            if parent >= 0:
                inner[parent] += span_s
        out = {}

        def add(key, value):
            out[key] = out.get(key, 0) + value

        for (name, _, _, _, failed, attrs), span_s, inner_s in zip(self.spans, took, inner):
            layer = name.split(".", 1)[0]
            add(f"{name}.calls", 1)
            add(f"{name}.failed", failed)
            add(f"{name}.s", span_s)
            add(f"{name}.self_s", span_s - inner_s)
            add(f"{layer}.self_s", span_s - inner_s)
            for key, value in attrs.items():
                if key == "peak_alloc_mb":
                    out[f"{name}.{key}"] = max(out.get(f"{name}.{key}", 0.0), value)
                else:
                    add(f"{name}.{key}", value)
        for key in [k for k in out if k.endswith(".calls")]:
            name = key[: -len(".calls")]
            out[f"{name}.us_per_call"] = out[f"{name}.s"] * 1e6 / out[key]
        return out
