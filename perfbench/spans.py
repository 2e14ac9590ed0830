"""In-memory spans recorded around calls into the library, and their arithmetic.

A span is one call: (id, parent id, name, start, end, items, nbytes), with
times from time.perf_counter (CLOCK_MONOTONIC, shared by every process on
the machine) and items/nbytes the size of the returned array, when the call
returns one.  A parent id of -1 marks a top-level span.

A span's self time is its duration minus the union of its children's
intervals, so overlapping children are not subtracted twice.
"""

from __future__ import annotations

import functools
import json
import time

ID, PARENT, NAME, START, END, ITEMS, NBYTES = range(7)


class Tracer:
    """Records nested spans and named counters; nothing is written until dump."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self._stack = []

    def wrap(self, name, fn):
        """fn with every call recorded as a span called name."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(self.spans), self._stack[-1] if self._stack else -1, name, 0.0, 0.0, 0, 0]
            self.spans.append(rec)
            self._stack.append(rec[ID])
            rec[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                self._stack.pop()
            rec[ITEMS] = int(getattr(out, "size", 0))
            rec[NBYTES] = int(getattr(out, "nbytes", 0))
            return out

        return traced

    def count(self, name, fn):
        """fn with its calls counted under name, without a span."""
        self.counters.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counters[name] += 1
            return fn(*args, **kwargs)

        return counted

    def patch(self, module, attr, name):
        """Replace module.attr, a name the module looks up at call time, by a traced wrapper."""
        setattr(module, attr, self.wrap(name, getattr(module, attr)))

    def dump(self, path, **extra):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters, **extra}, fh)


def union_length(intervals) -> float:
    """Total length covered by a collection of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """span id -> duration minus the union of its children's intervals, clipped to the span."""
    children = {}
    for s in spans:
        children.setdefault(s[PARENT], []).append(s)
    out = {}
    for s in spans:
        inner = [
            (max(c[START], s[START]), min(c[END], s[END]))
            for c in children.get(s[ID], ())
            if c[END] > s[START] and c[START] < s[END]
        ]
        out[s[ID]] = (s[END] - s[START]) - union_length(inner)
    return out


def covered_length(spans, lo, hi) -> float:
    """Length of [lo, hi] covered by the spans' intervals."""
    return union_length(
        (max(s[START], lo), min(s[END], hi)) for s in spans if s[END] > lo and s[START] < hi
    )
