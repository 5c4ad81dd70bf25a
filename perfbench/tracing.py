"""In-memory spans around the package's public functions.

The tracer replaces a name where the calling module looks it up (for example
``oracle.objective_from_counts``, which the oracle imported by name), records
one span per call, and puts every original back on ``restore``. Spans are
``(name, start, end, parent, run_id)`` tuples; ``parent`` is the index of the
enclosing span or -1. Calls are single-threaded, so spans nest strictly.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.run_id = ""
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Trace every call of ``owner.attr`` as span ``name``.

        ``count(args, result)``, when given, adds to counter ``name`` after
        each call, so work is counted where it is done.
        """
        raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patched.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self._traced(raw.__func__, name, count, skip=1)))
        else:
            setattr(owner, attr, self._traced(raw, name, count))

    def _traced(self, fn, name: str, count, skip: int = 0):
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run_id)
            if count is not None:
                counters[name] += count(args[skip:], result)
            return result

        return traced

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()

    def write(self, path: Path) -> None:
        """Spans as JSON lines: index, name, start, end, parent, run id."""
        with path.open("w") as fh:
            for index, (name, start, end, parent, run_id) in enumerate(self.spans):
                fh.write(json.dumps([index, name, start, end, parent, run_id]) + "\n")


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: call count, total duration and total self time.

    A span's self time is its duration minus the durations of its direct
    children; children of one span never overlap, because calls nest.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for index, (name, start, end, _, _) in enumerate(spans):
        entry = totals[name]
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - child_time[index]
    return totals
