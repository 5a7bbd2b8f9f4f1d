"""Spans recorded from outside clozegen by wrapping the names it looks up.

clozegen resolves its collaborators through module globals at call time
(``clozegen.pipeline.generate_candidates`` and so on), so replacing those
module attributes puts a span around every call without touching the
library. A name that no longer exists is reported as absent instead of
failing the run.

Spans are kept in memory as ``[name, start, end, parent, item, backend]``
lists and written out once, at the end. Backend passes are too many to
keep one span each: the wall time of each outermost backend call is added
to the ``backend`` seconds of the innermost open span instead, so a span's
self time is its duration minus its child spans and its backend time.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

START, END, PARENT, ITEM, BACKEND = 1, 2, 3, 4, 5


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.item = None
        self.busy = Counter()  # backend kind -> seconds
        self.observed = Counter()  # observation name -> total
        self._open: list[int] = []
        self._wrapped: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, name: str, observe=None) -> None:
        """Record a span ``name`` around every call of ``module.attr``.

        ``observe`` maps a return value to counts added to ``observed``.
        """
        original = getattr(module, attr, None)
        if original is None:
            if name not in self.absent:
                self.absent.append(name)
            return
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            if observe is not None:
                tracer.observed.update(observe(result))
            return result

        setattr(module, attr, traced)
        self._wrapped.append((module, attr, original))

    def unwrap(self) -> None:
        for module, attr, original in reversed(self._wrapped):
            setattr(module, attr, original)
        self._wrapped.clear()

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.item, 0.0])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index][END] = perf_counter()
        self._open.pop()

    def backend_time(self, kind: str, seconds: float) -> None:
        self.busy[kind] += seconds
        if self._open:
            self.spans[self._open[-1]][BACKEND] += seconds

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        child = defaultdict(float)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total": 0.0, "self": 0.0}
        )
        for index, span in enumerate(self.spans):
            duration = span[END] - span[START]
            entry = out[span[0]]
            entry["calls"] += 1
            entry["total"] += duration
            entry["self"] += duration - child[index] - span[BACKEND]
        return out

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, item, backend in self.spans:
                record = {
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "item": item,
                    "backend_s": backend,
                }
                handle.write(json.dumps(record) + "\n")
