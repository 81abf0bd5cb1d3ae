"""Spans around the public functions of the biquot modules, installed from
outside the package.

A module that imports a function by name (`from .embeddings import point_p`)
holds its own binding, so wrapping only the defining module would miss those
calls.  `Tracer` therefore rebinds every function in every `biquot` module
namespace that binds it, records one span per call in memory (name, parent
span, start, end, whether it raised, work done), and restores every original
binding on exit.  Self time is a span's duration minus the durations of its
child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from dataclasses import dataclass

LAYER_MODULES = ("cli", "certify", "zeroplane", "embeddings", "liealg", "quat")

# Work units per call for the layers whose cost is reported per unit.
WORK = {
    "certify.search_zero_plane":
        lambda bound, result: result.starts * result.iterations,
    "certify.bracket_floor": lambda bound, result: bound.arguments["samples"],
}


@dataclass
class LayerStats:
    calls: int = 0
    errors: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    work: float = 0.0


def package_modules() -> list:
    return [module for name, module in sorted(sys.modules.items())
            if module is not None and (name == "biquot" or name.startswith("biquot."))]


def public_functions() -> dict[str, object]:
    """Layer name -> original function, for every public function defined in
    a layer module, plus the scalar quaternion product."""
    targets = {}
    for short in LAYER_MODULES:
        module = sys.modules[f"biquot.{short}"]
        for name, obj in vars(module).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                targets[f"{short}.{name}"] = obj
    quat = sys.modules["biquot.quat"]
    targets["quat.Quaternion.mul"] = quat.Quaternion.__mul__
    return targets


class Tracer:
    """Context manager that traces every call of `public_functions()`."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, func):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        work = WORK.get(name)
        signature = inspect.signature(func) if work else None

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            error, amount = True, 0.0
            start = clock()
            try:
                result = func(*args, **kwargs)
                error = False
                if work is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    amount = work(bound, result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, parent, start, end, error, amount)

        return traced

    def __enter__(self) -> "Tracer":
        targets = public_functions()
        wrappers = {id(func): (func, self._wrap(name, func))
                    for name, func in targets.items()}
        for module in package_modules():
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self.patched.append((module, attr, obj))
                    setattr(module, attr, hit[1])
        quat = sys.modules["biquot.quat"].Quaternion
        original = targets["quat.Quaternion.mul"]
        self.patched.append((quat, "__mul__", original))
        quat.__mul__ = wrappers[id(original)][1]
        return self

    def __exit__(self, *exc) -> None:
        while self.patched:
            owner, attr, original = self.patched.pop()
            setattr(owner, attr, original)
        self._stack.clear()

    def dump(self, path) -> None:
        """Write every span as one JSON line: name, parent index, start, end,
        raised, work."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def layers(self) -> dict[str, LayerStats]:
        """Per-layer calls, errors, inclusive time, self time and work."""
        child_s = [0.0] * len(self.spans)
        for name, parent, start, end, _, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        stats: dict[str, LayerStats] = {}
        for index, (name, _, start, end, error, amount) in enumerate(self.spans):
            layer = stats.setdefault(name, LayerStats())
            layer.calls += 1
            layer.errors += error
            layer.total_s += end - start
            layer.self_s += end - start - child_s[index]
            layer.work += amount
        return stats
