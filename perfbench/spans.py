"""In-memory span recorder for the benchmark's traced run.

Spans are recorded by the benchmark around its own calls into su3bench, one
span per call, named after the module whose public function is called. The
package itself is not instrumented. A span's self time is its duration minus
the time its child spans cover; a module's busy time is the sum of the self
times of its spans. Spans stay in memory and are written out once, when the
run ends.
"""
from __future__ import annotations

import time
from pathlib import Path

import numpy as np


def call(tracer, module: str, name: str, fn, *args, **kwargs):
    """Call `fn`, inside a span when a tracer is given."""
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.call(module, name, fn, *args, **kwargs)


def timed(tracer, module: str, name: str, fn, *args, **kwargs):
    """Call `fn` once as one operation; return its result and duration in ns."""
    if tracer is None:
        t0 = time.perf_counter_ns()
        result = fn(*args, **kwargs)
        return result, time.perf_counter_ns() - t0
    tracer.op = tracer.ops
    tracer.ops += 1
    t0 = time.perf_counter_ns()
    result = tracer.call(module, name, fn, *args, **kwargs)
    elapsed = time.perf_counter_ns() - t0
    tracer.op = -1
    return result, elapsed


class Tracer:
    """Spans of (name, module, start, end, parent, op).

    `op` numbers the timed operation the span belongs to (-1 outside any), so
    the spans of one operation share an identifier.
    """

    def __init__(self) -> None:
        self.op = -1
        self.ops = 0
        self._labels: dict[tuple[str, str], int] = {}
        self._rows: list[tuple[int, int, int, int, int, int]] = []
        self._stack: list[list[int]] = []  # [span id, ns covered by children]
        self._next_id = 0
        self.busy_ns: dict[str, int] = {}
        self.total_ns: dict[tuple[str, str], int] = {}
        self.calls: dict[tuple[str, str], int] = {}

    def call(self, module: str, name: str, fn, *args, **kwargs):
        key = (module, name)
        label = self._labels.setdefault(key, len(self._labels))
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [span_id, 0]
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            self.busy_ns[module] = self.busy_ns.get(module, 0) + duration - frame[1]
            self.total_ns[key] = self.total_ns.get(key, 0) + duration
            self.calls[key] = self.calls.get(key, 0) + 1
            self._rows.append((span_id, label, start, end, parent, self.op))

    def mark(self) -> dict[tuple[str, str], int]:
        """Totals so far, to subtract from a later mark."""
        return dict(self.total_ns)

    def since(self, mark: dict[tuple[str, str], int], module: str, name: str) -> float:
        """Seconds spent in (module, name) spans since `mark`."""
        key = (module, name)
        return (self.total_ns.get(key, 0) - mark.get(key, 0)) / 1e9

    def write(self, path: Path) -> None:
        rows = np.array(self._rows, dtype=np.int64).reshape(-1, 6)
        labels = sorted(self._labels, key=self._labels.get)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            module=np.array([m for m, _ in labels]),
            name=np.array([n for _, n in labels]),
            span_id=rows[:, 0],
            label=rows[:, 1],
            start_ns=rows[:, 2],
            end_ns=rows[:, 3],
            parent=rows[:, 4],
            op=rows[:, 5],
        )
