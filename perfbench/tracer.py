"""In-memory span recorder for the traced benchmark run.

A span has a name, a start and end time, the span that encloses it and the
id of the op it belongs to ("setup" before the first op).  Spans stay in
memory and are written out once, when the run ends.  A layer's self time is
its span's duration minus the durations of its direct children: children are
entered and left inside their parent, one after another, so together they
cover exactly that part of the parent's interval.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1, op id]
        self.op = "setup"
        self._stack = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def self_times(self) -> dict:
        """Layer name -> list of (start, self time) per call, in call order."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(list)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name].append((start, end - start - child[i]))
        return out

    def layer_metrics(self, layers, scale) -> dict:
        """``<layer>.calls``, ``.busy_s`` and ``.p50_s`` for every named layer.

        A self time measured at ``t`` is multiplied by ``scale(t)``.  A layer
        the workload never entered reads 0 calls and 0 s.
        """
        selfs = self.self_times()
        out = {}
        for layer in layers:
            vals = [dt * scale(t) for t, dt in selfs.get(layer, [])]
            out[f"{layer}.calls"] = (len(vals), "count")
            out[f"{layer}.busy_s"] = (float(sum(vals)), "s")
            out[f"{layer}.p50_s"] = (statistics.median(vals) if vals else 0.0, "s")
        return out

    @staticmethod
    def span_cost(n: int = 20000) -> float:
        """Seconds one empty span costs, from ``n`` spans on a scratch tracer."""
        tr = Tracer()
        t0 = time.perf_counter()
        for _ in range(n):
            with tr.span("x"):
                pass
        return (time.perf_counter() - t0) / n

    def dump(self) -> list:
        return [{"name": n, "start": s, "end": e, "parent": p, "op": o}
                for n, s, e, p, o in self.spans]
