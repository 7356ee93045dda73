"""Span recorder for the traced benchmark run.

The recorder wraps public functions of ``chancorr`` by rebinding the names
where the package looks them up (``chancorr.train.predict``,
``chancorr.adapter.divide``, the ``Tensor.backward`` method, ...), so the
package itself is never edited.  Each call becomes a span (name, start,
end, parent, run id) kept in memory and written out when the run ends.

Two passes use the recorder: a timing pass (spans only) and a separate
memory pass that also takes ``tracemalloc`` peaks per span, so memory
tracing never inflates the span timings.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None          # index of the enclosing span, if any
    run_id: str
    peak_bytes: int | None = None   # set in the memory pass only


class SpanRecorder:
    """Collects nested spans; with ``memory`` also per-span tracemalloc
    peaks (bytes allocated above the level at span entry)."""

    def __init__(self, run_id: str, memory: bool = False):
        self.run_id = run_id
        self.memory = memory
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._mem: list[list[int]] = []   # [level at entry, peak so far]

    def _enter(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, 0.0, 0.0, parent, self.run_id)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._mem:
                self._mem[-1][1] = max(self._mem[-1][1], peak)
            self._mem.append([current, current])
            tracemalloc.reset_peak()
        span.start = time.perf_counter()
        return span

    def _exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if self.memory:
            _, peak = tracemalloc.get_traced_memory()
            level, seen = self._mem.pop()
            top = max(seen, peak)
            span.peak_bytes = top - level
            if self._mem:
                self._mem[-1][1] = max(self._mem[-1][1], top)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span."""
        span = self._enter(name)
        try:
            yield span
        finally:
            self._exit(span)

    def wrap(self, name: str, fn, after=None):
        """``fn`` with every call recorded as a span named ``name``.
        ``after(recorder, result)`` runs outside the span, for counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if after is not None:
                after(self, result)
            return result

        return traced

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps(dict(asdict(span), id=index)) + "\n")


def _resolve(target: str):
    """Module or class named by a dotted path such as
    ``chancorr.autodiff.Tensor``."""
    try:
        return importlib.import_module(target)
    except ModuleNotFoundError:
        module, _, attr = target.rpartition(".")
        return getattr(importlib.import_module(module), attr)


@contextlib.contextmanager
def patched(recorder: SpanRecorder, sites):
    """Rebind each ``(target, attribute, span name, after)`` site to a
    recording wrapper for the duration of the block."""
    saved = []
    try:
        for target, attr, name, after in sites:
            owner = _resolve(target)
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(name, original, after))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [span.end - span.start
            - covered_length(children[i], span.start, span.end)
            for i, span in enumerate(spans)]


def layer_summary(spans) -> dict:
    """name -> calls, total_s, self_s, peak_bytes over all spans of it.

    ``total_s`` counts only spans with no same-named ancestor, so a layer
    that re-enters itself is not counted twice.
    """
    own = self_times(spans)
    out: dict = {}
    for i, span in enumerate(spans):
        row = out.setdefault(span.name, {"calls": 0, "total_s": 0.0,
                                         "self_s": 0.0, "peak_bytes": 0})
        row["calls"] += 1
        row["self_s"] += own[i]
        if not _has_ancestor_named(spans, span):
            row["total_s"] += span.end - span.start
        if span.peak_bytes is not None:
            row["peak_bytes"] = max(row["peak_bytes"], span.peak_bytes)
    return out


def _has_ancestor_named(spans, span) -> bool:
    parent = span.parent
    while parent is not None:
        if spans[parent].name == span.name:
            return True
        parent = spans[parent].parent
    return False
