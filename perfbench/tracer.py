"""In-memory span recorder for the traced benchmark run.

The tracer wraps public functions and methods of ``mlrf`` by replacing the
module or class attribute that callers look up at call time, so no program
file changes.  Each span is (name, start_ns, end_ns, parent index); spans
stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0)
        self._open.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def wrap(self, owner, attr: str, name: str, before=None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``before`` is called with the call's arguments ahead of the span.
        """
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            idx = self.begin(name)
            try:
                return original(*args, **kwargs)
            finally:
                self.end(idx)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- derived views

    def duration(self, idx: int) -> int:
        return self.ends[idx] - self.starts[idx]

    def children(self) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in self.names]
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                kids[parent].append(idx)
        return kids

    def self_time(self, idx: int, kids: list[list[int]]) -> int:
        return self.duration(idx) - sum(self.duration(k) for k in kids[idx])

    def descendants(self, idx: int, kids: list[list[int]]) -> list[int]:
        out, todo = [], list(kids[idx])
        while todo:
            k = todo.pop()
            out.append(k)
            todo.extend(kids[k])
        return out

    def to_rows(self) -> list[dict]:
        return [
            {"name": n, "start_ns": s, "end_ns": e, "parent": p}
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]
