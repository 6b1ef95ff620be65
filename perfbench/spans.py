"""In-memory span recorder that wraps a package's public functions from outside.

A span is (name, start, end, parent, campaign): wall-clock seconds from
``time.perf_counter``, the index of the enclosing span (or None) and the id
of the campaign that was running.  Spans stay in a list until the caller
writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    campaign: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.campaign: str | None = None
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.campaign))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Replace ``module.attr`` by a traced wrapper for each
        ``(span_name, [(module, attr), ...])`` in ``targets``, restoring the
        originals on exit.  Every binding of one function shares one wrapper,
        so a call through any of them records exactly one span."""
        saved = []
        try:
            for name, bindings in targets:
                module, attr = bindings[0]
                wrapper = self.wrap(name, getattr(module, attr))
                for module, attr in bindings:
                    saved.append((module, attr, getattr(module, attr)))
                    setattr(module, attr, wrapper)
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_time(self, index: int) -> float:
        """Duration of span ``index`` minus the time its direct children cover."""
        children = sum(s.duration for s in self.spans if s.parent == index)
        return self.spans[index].duration - children

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]
