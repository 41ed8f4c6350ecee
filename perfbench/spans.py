"""In-memory span recorder for the traced run.

Spans are recorded from outside the package: each listed function is
replaced, at every module attribute through which a caller resolves it,
by a wrapper that records (name, start, end, parent, op).  A layer's self
time is its span time minus the time of its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from pathlib import Path


class SpanRecorder:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []

    def span(self, name: str, fn, observe=None):
        """Wrap ``fn`` so each call records a span; ``observe(result)`` sees its result."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((name, 0.0, 0.0, parent, self.op))
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.op)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    def count(self, counter: str, fn, amount):
        """Wrap ``fn`` so each call adds ``amount(args)`` to a counter, without a span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[counter] += amount(args)
            return fn(*args, **kwargs)

        return wrapper

    def dump(self, path: Path) -> None:
        """Write every span as a tab-separated line: name, start, end, parent, op."""
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{op}\n")


def self_times(spans) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, total self time), self time = span time - child span time."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, tuple[int, float]] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + (end - start) - child[i])
    return out


def bindings(fn, package: str = "qcorr") -> list[tuple[object, str]]:
    """Every (module, attribute) of ``package`` through which callers resolve ``fn``."""
    found = []
    for name, module in sorted(sys.modules.items()):
        if name == package or name.startswith(package + "."):
            found += [(module, attr) for attr, value in vars(module).items() if value is fn]
    return found


def patch(replacements) -> callable:
    """Apply (owner, attribute, new value) replacements; return their undo."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    for owner, attr, value in replacements:
        setattr(owner, attr, value)

    def restore():
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)

    return restore
