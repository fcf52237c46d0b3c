"""Spans around calls into latcf's public functions, recorded from outside.

`Tracer.add` finds every binding of a function (its home module, modules
that imported it under any alias, the package namespace) and prepares a
wrapper that records one span per call: metric name, start, end, parent
span and op id.  `patch` rebinds them all to the wrappers; `restore` puts
every original back and reports any binding it could not restore.  Spans
stay in memory until the run ends.  Self time is a span's duration minus
the durations of its direct children; calls run on one thread, so
children never overlap and that difference is exactly the uncovered time.
"""

from __future__ import annotations

import functools
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # (name index, start ns, end ns, parent span, op id)
        self.op = -1
        self._stack: list[int] = []
        self._sites: list = []  # (namespace, key, original, wrapper)

    def add(self, name: str, owner, attr: str, namespaces):
        """Prepare to wrap owner.attr and every binding of the same object
        in `namespaces` (modules or classes)."""
        original = vars(owner)[attr]
        sites = [(owner, attr)]
        for ns in namespaces:
            for key, value in vars(ns).items():
                if value is original and (ns, key) not in sites:
                    sites.append((ns, key))
        wrapper = self._wrapper(original, len(self.names))
        self.names.append(name)
        self._sites += [(ns, key, original, wrapper) for ns, key in sites]

    def _wrapper(self, original, idx):
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[sid] = (idx, start, end, parent, self.op)

        return traced

    def patch(self):
        for ns, key, _, wrapper in self._sites:
            setattr(ns, key, wrapper)

    def restore(self) -> list[str]:
        """Put every original back; returns the bindings still wrapped."""
        for ns, key, original, _ in self._sites:
            setattr(ns, key, original)
        return [f"{getattr(ns, '__name__', ns)}.{key}"
                for ns, key, original, _ in self._sites if vars(ns)[key] is not original]

    def save(self, path) -> np.ndarray:
        """Write the spans out and return them as an int64 array with
        columns name, start, end, parent, op."""
        arr = np.array(self.spans, dtype=np.int64).reshape(-1, 5)
        np.savez(path, spans=arr, names=np.array(self.names))
        return arr

    def totals(self, arr: np.ndarray) -> dict[str, tuple[int, int]]:
        """Per metric name: (calls, total self time in ns)."""
        n = len(arr)
        dur = arr[:, 2] - arr[:, 1]
        parent = arr[:, 3]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_ns = dur - child
        k = len(self.names)
        calls = np.bincount(arr[:, 0], minlength=k)
        self_tot = np.bincount(arr[:, 0], weights=self_ns, minlength=k)
        return {nm: (int(calls[i]), int(self_tot[i])) for i, nm in enumerate(self.names)}
