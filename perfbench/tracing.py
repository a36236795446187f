"""In-memory spans around the benchmark's calls into macc, and the statistics over them.

A span records its name, start, end, parent span and operation id. Spans stay
in memory and are written out once, when the run ends. A span's self time is
its duration minus the time its child spans cover; children of one span never
overlap, because spans are opened and closed strictly nested.
"""

import json
import statistics
import time
from contextlib import contextmanager, nullcontext


def p50(values):
    return statistics.median(values)


def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


class NoTrace:
    """Stand-in used by untraced runs: spans cost one attribute lookup."""

    op = 0
    _null = nullcontext()

    def span(self, name):
        return self._null

    def count(self, name, value):
        pass

    def bump(self, name, n=1):
        pass

    def record(self, name, seconds):
        pass


class Tracer:
    """Span and count recorder for one traced run."""

    def __init__(self):
        self.op = 0
        self.spans = []  # [name, start, end, parent index or None, op id]
        self.counts = {}
        self._open = []

    @contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else None
        rec = [name, time.perf_counter(), None, parent, self.op]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def count(self, name, value):
        """Record a deterministic per-operation count; it must not vary between operations."""
        old = self.counts.setdefault(name, value)
        if old != value:
            raise ValueError(f"count {name} changed from {old} to {value}")

    def bump(self, name, n=1):
        """Add n to a running count."""
        self.counts[name] = self.counts.get(name, 0) + n

    def record(self, name, seconds):
        """A span measured elsewhere, such as inside a child process, ending now."""
        end = time.perf_counter()
        self.spans.append([name, end - seconds, end, self._open[-1] if self._open else None, self.op])

    def self_times(self):
        """(name, self seconds) per span."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [(s[0], s[2] - s[1] - covered[i]) for i, s in enumerate(self.spans)]

    def self_times_by_name(self):
        out = {}
        for name, dt in self.self_times():
            out.setdefault(name, []).append(dt)
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
