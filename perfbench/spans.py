"""In-memory span recorder for the traced benchmark run.

The recorder wraps public library functions by ``setattr`` on every
``semphrase`` module that holds them (some modules import a function by name,
so patching only its home module would miss those calls) and restores the
originals when the ``installed`` block exits.

Each call to a wrapped function becomes a span (name, start, end, parent span,
run id), except for the functions named as aggregated: they run once per
phrase, pair or candidate, so their calls are folded into a count and a total
per (enclosing span, name) and memory stays bounded.  Self time is the
duration minus the time of direct children; children run one after another
in a single thread, so those durations never overlap and the self times of a
subtree sum to the duration of its root.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    self_s: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Aggregate:
    """Calls of one aggregated function made directly or indirectly under one span."""

    owner: int
    name: str
    calls: int = 0
    seconds: float = 0.0
    self_s: float = 0.0


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self.aggregates: dict[tuple[int, str], Aggregate] = {}
        self.run = 0
        # Open frames, innermost last: [span id or None, owning span id, child seconds].
        self._stack: list[list] = []

    def _open(self, real: bool) -> list:
        owner = self._stack[-1][1] if self._stack else None
        if real:
            sid = len(self.spans)
            self.spans.append(Span(sid, "", 0.0, 0.0, owner, self.run))
            frame = [sid, sid, 0.0]
        else:
            frame = [None, owner, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame, name: str, start: float, end: float) -> None:
        self._stack.pop()
        seconds = end - start
        if self._stack:
            self._stack[-1][2] += seconds
        if frame[0] is not None:
            span = self.spans[frame[0]]
            span.name, span.start, span.end = name, start, end
            span.self_s = seconds - frame[2]
            return
        if frame[1] is None:
            raise RuntimeError(f"aggregated call {name} outside any span")
        agg = self.aggregates.get((frame[1], name))
        if agg is None:
            agg = self.aggregates[(frame[1], name)] = Aggregate(frame[1], name)
        agg.calls += 1
        agg.seconds += seconds
        agg.self_s += seconds - frame[2]

    @contextmanager
    def span(self, name: str):
        frame = self._open(True)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(frame, name, start, time.perf_counter())

    def wrap(self, name: str, fn, aggregated: bool):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._open(not aggregated)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame, name, start, clock())

        return wrapper

    def root_of(self, span_id: int) -> Span:
        span = self.spans[span_id]
        while span.parent is not None:
            span = self.spans[span.parent]
        return span

    def records(self):
        """(name, calls, seconds, self seconds, root span) for every span and aggregate."""
        for span in self.spans:
            yield span.name, 1, span.seconds, span.self_s, self.root_of(span.id)
        for agg in self.aggregates.values():
            yield agg.name, agg.calls, agg.seconds, agg.self_s, self.root_of(agg.owner)

    def write(self, path) -> None:
        """One JSON object per line: spans first, then aggregates."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "run": s.run, "self_s": s.self_s}) + "\n")
            for a in self.aggregates.values():
                fh.write(json.dumps({"owner": a.owner, "name": a.name, "calls": a.calls,
                                     "seconds": a.seconds, "self_s": a.self_s}) + "\n")


@contextmanager
def installed(recorder: Recorder, modules, targets):
    """Wrap ``targets`` ({"module.function": aggregated}) in every module of ``modules``."""
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
    saved = []
    try:
        for qualname, aggregated in targets.items():
            home, fname = qualname.split(".")
            original = getattr(by_name[home], fname)
            wrapper = recorder.wrap(qualname, original, aggregated)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        saved.append((module, attr, value))
                        setattr(module, attr, wrapper)
        yield recorder
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)
