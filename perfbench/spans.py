"""Spans and counters recorded around the package calls the benchmark makes.

A plain run passes ``UNTRACED``, whose ``call`` is a direct call, so its
end-to-end figures are taken with tracing off.  A traced run passes a
``Tracer``: each call becomes a span (id, parent id, name, start, end), case
spans group the calls made for one operation, and counters record the work
done at the same boundaries.  Spans stay in memory and are written out once,
when the run ends.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter
from typing import Dict, List


class Untraced:
    on = False

    def call(self, name, fn, *args):
        return fn(*args)

    def span(self, name):
        return nullcontext()


UNTRACED = Untraced()


class Tracer:
    on = True

    def __init__(self) -> None:
        self.origin = perf_counter()
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counts: Dict[str, float] = {}
        self.maxima: Dict[str, float] = {}

    def _open(self, name: str) -> list:
        rec = [len(self.spans), self.stack[-1] if self.stack else None, name, 0.0, 0.0]
        self.spans.append(rec)
        self.stack.append(rec[0])
        return rec

    def call(self, name, fn, *args):
        rec = self._open(name)
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            rec[3], rec[4] = t0, perf_counter()
            self.stack.pop()

    @contextmanager
    def span(self, name):
        rec = self._open(name)
        rec[3] = perf_counter()
        try:
            yield
        finally:
            rec[4] = perf_counter()
            self.stack.pop()

    def count(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def maximum(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def busy_ms(self, name: str) -> float:
        """Total milliseconds inside spans of this name."""
        return 1000.0 * sum(end - start for _, _, n, start, end in self.spans if n == name)

    def write(self, path: Path, meta: dict) -> None:
        spans = [
            {
                "id": sid,
                "parent": parent,
                "name": name,
                "start_us": round((start - self.origin) * 1e6, 1),
                "dur_us": round((end - start) * 1e6, 1),
            }
            for sid, parent, name, start, end in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(meta, counts=self.counts, maxima=self.maxima, spans=spans)
        path.write_text(json.dumps(doc, indent=1) + "\n")
