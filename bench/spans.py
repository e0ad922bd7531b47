"""In-memory spans around calls into polymkl's public functions.

A span is one call: its name, start, end and the index of the enclosing span
(the one that caused it), plus optional facts taken at the boundary: a value
kept from the call's result (the drawn tuple's degree for `sampler.draw`, the
iteration wall stamps for `optimizer.run`) and the tracemalloc peak inside the
call. Wrappers replace the attribute a caller looks up, e.g.
`polymkl.optimizer.solve_alpha` or `SamplerWorkspace.draw` on the class, for
the lifetime of a `Recorder`; nothing inside polymkl is edited. Spans stay in
memory and are written out once, when the benchmark ends.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple


class Target(NamedTuple):
    """One attribute to wrap: `owner.attr` becomes span `name`. `keep` maps the
    call's result to the span's detail; `peak` records the tracemalloc peak."""

    owner: Any
    attr: str
    name: str
    keep: Callable[[Any], Any] | None = None
    peak: bool = False


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index into the recorder's span list, -1 for a root
    detail: Any = None
    peak_bytes: int | None = None


class Recorder:
    """Collects spans for one `run_experiment` call.

    Use as a context manager: entering installs the wrappers, leaving puts the
    original attributes back, also when the call raised. Memory-probed targets
    must not nest inside each other, because tracemalloc is started and
    stopped around each.
    """

    def __init__(self, targets: list[Target]):
        self.targets = list(targets)
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "Recorder":
        for target in self.targets:
            original = vars(target.owner)[target.attr]
            self._saved.append((target.owner, target.attr, original))
            setattr(target.owner, target.attr, self._wrap(original, target))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), parent=parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span):
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, original, target: Target):
        recorder = self

        def wrapper(*args, **kwargs):
            if target.peak:
                tracemalloc.start()
            span = recorder._open(target.name)
            try:
                result = original(*args, **kwargs)
                if target.keep is not None:
                    span.detail = target.keep(result)
                return result
            finally:
                if target.peak:
                    span.peak_bytes = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                recorder._close(span)

        wrapper.__wrapped__ = original
        return wrapper

    def of(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.end - s.start for s in self.of(name))

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds), where self time
        is a span's duration minus the time its direct children cover."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        table: dict[str, list] = {}
        for span, children in zip(self.spans, child_time):
            row = table.setdefault(span.name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += span.end - span.start
            row[2] += span.end - span.start - children
        return {name: tuple(row) for name, row in table.items()}

    def write_jsonl(self, fh, repeat: int):
        for index, span in enumerate(self.spans):
            record = {
                "repeat": repeat,
                "id": index,
                "parent": span.parent,
                "name": span.name,
                "start": span.start,
                "end": span.end,
            }
            if span.detail is not None:
                record["detail"] = span.detail
            if span.peak_bytes is not None:
                record["peak_bytes"] = span.peak_bytes
            fh.write(json.dumps(record) + "\n")
