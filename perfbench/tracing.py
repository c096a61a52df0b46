"""In-memory spans recorded around calls into the system's layers."""
from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager


class Tracer:
    """Spans with name, start, end, parent span and query id.

    A span opened inside another becomes its child and inherits its
    query id. Callers may attach counters to the yielded span dict.
    Spans stay in memory until ``write``.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, qid: int | None = None):
        parent = self._open[-1] if self._open else None
        if qid is None and parent is not None:
            qid = self.spans[parent]["qid"]
        rec = {"id": len(self.spans), "name": name, "parent": parent, "qid": qid}
        self.spans.append(rec)
        self._open.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def median(self, name: str) -> float:
        """Median duration of the spans called ``name`` (0 if none ran)."""
        d = self.durations(name)
        return statistics.median(d) if d else 0.0

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def write(self, path) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")
