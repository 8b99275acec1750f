"""In-memory spans recorded by the benchmark around its calls into the
program, with self time computed from the span tree.

A span has a name (``<module>.<function>``), a start, an end, the index of
its parent span and the id of the problem run it belongs to.  Spans stay in
memory until the run ends.  ``NULL`` has the same interface and records
nothing; untraced runs use it so that both runs execute the same code.
"""

import time
from collections import defaultdict


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        parent = tr.stack[-1] if tr.stack else -1
        self.index = len(tr.spans)
        tr.spans.append([self.name, time.perf_counter(), None, parent, tr.problem])
        tr.stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][2] = time.perf_counter()
        tr.stack.pop()
        return False


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, problem id]
        self.stack = []
        self.problem = None
        self.counts = defaultdict(dict)  # problem id -> {count name: value}

    def span(self, name):
        return _Span(self, name)

    def count(self, name, value):
        self.counts[self.problem][name] = value

    def self_times(self):
        """{problem id: {span name: summed self seconds}}; self time is a
        span's duration minus the time its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _, pid) in enumerate(self.spans):
            out[pid][name] += (end - start) - child_time[i]
        return out

    def durations(self, name):
        """Durations in seconds of every span with this name."""
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def to_json(self):
        t0 = self.spans[0][1] if self.spans else 0.0
        return [
            {"name": n, "start_s": s - t0, "end_s": e - t0, "parent": p, "problem": pid}
            for n, s, e, p, pid in self.spans
        ]


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class _NullTracer:
    _span = _NullSpan()
    problem = None

    def span(self, name):
        return self._span

    def count(self, name, value):
        pass


NULL = _NullTracer()
