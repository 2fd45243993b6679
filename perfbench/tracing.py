"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent index, op id).  Spans are appended to a
list while the run executes and written out once it ends; nothing is
written while ops are being timed.  Wrappers are installed from outside the
package: ``rebind`` swaps a module attribute for a timing wrapper and
``restore`` puts every original back.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counters: dict[str, float] = defaultdict(float)
        self.values: dict[str, list[float]] = defaultdict(list)
        self.op = None
        self.last_duration = 0.0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``; return its result."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent, self.op]
        self.spans.append(record)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
            self.last_duration = record[2] - record[1]

    def wrap(self, name: str, fn, after=None):
        """Timing wrapper for ``fn``.

        ``after(result, args, seconds)`` runs after each call that returns;
        a call that raises adds one to the ``<name>.raised`` counter.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = self.span(name, fn, *args, **kwargs)
            except Exception:
                self.counters[name + ".raised"] += 1
                raise
            if after is not None:
                after(result, args, self.last_duration)
            return result

        return wrapper

    def rebind(self, module, attr: str, replacement) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def inclusive(self, name: str) -> float:
        """Total duration of the spans named ``name``."""
        return sum(self.durations(name))

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def self_time(self, name: str) -> float:
        """Duration of the spans named ``name`` minus the time their child spans cover."""
        children = defaultdict(list)
        for span in self.spans:
            if span[3] >= 0:
                children[span[3]].append((span[1], span[2]))
        total = 0.0
        for index, (n, start, end, _, _) in enumerate(self.spans):
            if n != name:
                continue
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(children.get(index, ())):
                c_start = max(c_start, reach)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            total += (end - start) - covered
        return total

    def write(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
