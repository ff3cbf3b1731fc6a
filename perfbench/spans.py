"""In-memory spans around calls into the program's public functions.

A span is (name, parent index, start, end).  Spans are recorded only in a
traced pass, kept in a list and written out when the pass ends.  A call
that recurses into itself under the same name records one span.
"""

from __future__ import annotations

import json
from functools import wraps
from time import perf_counter


class Tracer:
    def __init__(self, request: str):
        self.request = request
        self.spans: list[list] = []
        self.stack: list[int] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, perf_counter(), None])
        self.stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][3] = perf_counter()
        self.stack.pop()

    def _nested(self, name: str) -> bool:
        return bool(self.stack) and self.spans[self.stack[-1]][0] == name

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace owner.attr by a function that records a span per call."""
        fn = getattr(owner, attr)

        @wraps(fn)
        def traced(*args, **kwargs):
            if self._nested(name):
                return fn(*args, **kwargs)
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        setattr(owner, attr, traced)

    def wrap_iter(self, owner, attr: str, name: str) -> None:
        """Like wrap, for a generator function: one span per item produced."""
        fn = getattr(owner, attr)

        @wraps(fn)
        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                index = self._open(name)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    self._close(index)
                yield item

        setattr(owner, attr, traced)

    def summary(self) -> dict[str, dict]:
        """Per name: calls, total seconds, and self seconds (minus child spans)."""
        out: dict[str, dict] = {}
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, _, start, end), inner in zip(self.spans, child_time):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - inner
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"request": self.request, "spans": self.spans}, f)
