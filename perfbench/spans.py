"""In-memory span recorder for the traced benchmark run.

A span is ``[name, start, end, parent]``: times from ``time.perf_counter``,
``parent`` the index of the span open when this one started (-1 at the
top).  Spans stay in a list until the run ends; ``dump`` writes them out.
"""

from __future__ import annotations

import functools
import json
import statistics
import time


class SpanRecorder:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        """Return fn recording one span per call."""
        spans, open_, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, open_[-1] if open_ else -1])
            open_.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                open_.pop()
                spans[idx][2] = clock()
            return result

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s, and self_s (total minus direct children)."""
        out: dict[str, dict[str, float]] = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _), inner in zip(self.spans, child_time):
            s = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += end - start - inner
        return out

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)


def span_cost_s() -> float:
    """Seconds one recorded span adds to a call: a wrapped no-op timed against the bare one.

    Measured in the traced process itself, so it runs at that process's
    CPU speed; times the number of spans, it estimates what tracing cost.
    """
    calls = 10000

    def noop(x):
        return x

    def per_call(fn) -> float:
        start = time.perf_counter()
        for i in range(calls):
            fn(i)
        return (time.perf_counter() - start) / calls

    return statistics.median(
        per_call(SpanRecorder().wrap("noop", noop)) - per_call(noop) for _ in range(5)
    )
