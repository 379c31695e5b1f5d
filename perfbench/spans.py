"""In-memory span tracer that wraps library functions at their call sites.

A span is (name, start, end, parent). Wrapping replaces a module or
class attribute with a function that records a span around the original
and, optionally, adds work counts derived from the call's arguments and
result. Patches are installed only inside `Tracer.active()`, so code
outside it runs the original functions with no wrapper at all.

Spans are folded into per-name totals after each op (`fold`): self time
is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, NamedTuple

# (args, kwargs, result) -> {counter name: increment}
Counter = Callable[[tuple, dict, Any], dict[str, float]]


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None  # index into the same span list


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per-name sum of span duration minus the time covered by direct
    children. Children never outlive their parent, so the sum of all
    self times equals the total duration of the root spans."""
    out: dict[str, float] = defaultdict(float)
    for span in spans:
        out[span.name] += span.end - span.start
        if span.parent is not None:
            out[spans[span.parent].name] -= span.end - span.start
    return dict(out)


@dataclass
class Phase:
    """Totals for one kind of work (setup, op or check) over `units` folds."""

    units: int = 0
    root_s: float = 0.0  # summed duration of top-level spans
    self_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    calls: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))

    def per_unit(self, table: dict[str, float], key: str) -> float:
        return table.get(key, 0.0) / self.units if self.units else 0.0


@dataclass
class _Patch:
    owner: Any
    attr: str
    name: str
    counter: Counter | None


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._counts: dict[str, float] = defaultdict(float)
        self._patches: list[_Patch] = []
        self.phases: dict[str, Phase] = defaultdict(Phase)

    def patch(self, owner: Any, attr: str, name: str, counter: Counter | None = None) -> None:
        """Register `owner.attr` to be traced as `name` while active."""
        self._patches.append(_Patch(owner, attr, name, counter))

    def wrap(self, name: str, fn: Callable, counter: Counter | None = None) -> Callable:
        """fn with a span named `name` around every call."""
        spans, stack, counts, clock = self.spans, self._stack, self._counts, self.clock
        prefix = name + "."

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            parent = stack[-1] if stack else None
            # placeholder keeps indices stable while children append
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(name, start, end, parent)
            if counter is not None:
                for key, inc in counter(args, kwargs, result).items():
                    counts[prefix + key] += inc
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    @contextmanager
    def active(self, phase: str | None = None) -> Iterator[None]:
        """Install every registered patch; restore the originals on exit
        and, given a phase, fold what was recorded into it."""
        saved = []
        try:
            for p in self._patches:
                original = getattr(p.owner, p.attr)
                saved.append((p, original))
                setattr(p.owner, p.attr, self.wrap(p.name, original, p.counter))
            yield
        finally:
            for p, original in reversed(saved):
                setattr(p.owner, p.attr, original)
            if phase is not None:
                self.fold(phase)

    def fold(self, phase: str) -> None:
        """Move recorded spans and counts into `phase` as one unit of work
        and clear them."""
        if self._stack:
            raise RuntimeError("fold called with spans still open")
        totals = self.phases[phase]
        totals.units += 1
        for name, seconds in self_times(self.spans).items():
            totals.self_s[name] += seconds
        for span in self.spans:
            totals.calls[span.name] += 1
        for key, inc in self._counts.items():
            totals.counts[key] += inc
        totals.root_s += sum(s.end - s.start for s in self.spans if s.parent is None)
        self.spans.clear()
        self._counts.clear()
