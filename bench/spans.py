"""In-memory spans and counts for the traced run.

Spans are recorded in the benchmark's own code, around each call it
makes into an ``isotree`` module; the program itself is not traced.
With ``on`` false, :meth:`Tracer.call` is a plain call.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.on = False
        # (name, start, end, parent index or -1), kept until the run ends.
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter[str] = Counter()
        self._parent = -1

    def call(self, name: str, fn, *args):
        if not self.on:
            return fn(*args)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append((name, start, perf_counter(), self._parent))

    @contextmanager
    def span(self, name: str):
        """A parent span: calls made inside it are its children."""
        if not self.on:
            yield
            return
        index = len(self.spans)
        self.spans.append((name, perf_counter(), 0.0, self._parent))
        outer, self._parent = self._parent, index
        try:
            yield
        finally:
            self._parent = outer
            name_, start, _, parent = self.spans[index]
            self.spans[index] = (name_, start, perf_counter(), parent)

    def count(self, name: str, k: int) -> None:
        if self.on:
            self.counts[name] += k

    def self_times(self, scale) -> dict[str, float]:
        """Summed self time per span name: duration minus children's,
        each span's times multiplied by ``scale(start)``."""
        child_time = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start - child_time[i]) * scale(start)
        return out
