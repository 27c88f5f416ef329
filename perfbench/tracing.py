"""Spans around the benchmark's calls into ptlab, kept in memory.

A span is (id, name, parent, trial, start, end).  Names are
"<layer>.<function>" for calls into a ptlab module and "bench.<step>" for
the benchmark's own grouping spans; a span without a trial id inherits its
parent's.  A layer's self time is the summed duration of its spans minus
the part covered by their child spans.
"""

import contextlib
import json
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    parent: int          # -1 for a root span
    trial: str
    start: float
    end: float = 0.0

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    @contextlib.contextmanager
    def span(self, name, trial=None):
        parent = self._open[-1] if self._open else None
        if trial is None and parent is not None:
            trial = parent.trial
        s = Span(len(self.spans), name, parent.id if parent else -1,
                 trial, time.perf_counter())
        self.spans.append(s)
        self._open.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def self_seconds(self):
        """{layer: self time} over every span, layer = prefix of the name."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                covered[s.parent] += s.duration
        out = {}
        for s, c in zip(self.spans, covered):
            layer = s.name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + s.duration - c
        return out

    def durations(self, names):
        return [s.duration for s in self.spans if s.name in names]

    def per_trial(self, names):
        """Summed duration of the named spans within each trial that has any."""
        out = {}
        for s in self.spans:
            if s.name in names:
                out[s.trial] = out.get(s.trial, 0.0) + s.duration
        return out

    def write(self, path, header):
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


class NullTracer:
    """Untraced stand-in for Tracer: the same calls, no spans."""

    def span(self, name, trial=None):
        return contextlib.nullcontext()

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


UNTRACED = NullTracer()
