"""Spans and counters recorded around the library's functions.

A traced function is replaced in every ``lam`` module that binds it, that
is where its callers look it up: ``lam.lab.own_instability`` as well as
``lam.choice.own_instability``.  Calls made inside the library are
therefore seen as well as the benchmark's own.  A span records its name,
start, end and parent (the span open when it began); functions called
millions of times per op are counted without a span, so their time stays
in the caller's self time.  Spans are kept in memory and turned into
per-layer metrics when the run ends.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable


class Span:
    __slots__ = ("name", "start", "end", "parent", "extra")

    def __init__(self, name: str, start: float, parent: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.extra = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and counts; installs and removes its wrappers."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, self.clock(), parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack.pop()

    def add(self, counter: str, amount: float = 1) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def spanned(self, fn, name: str, on_return=None):
        """``fn`` wrapped in a span; ``on_return(span, args, kwargs, result)``
        may attach data to the span or bump counters."""

        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if on_return is not None:
                on_return(span, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, fn, name: str):
        """``fn`` wrapped so that each call bumps the counter ``name``."""
        cell = [0]
        self.counts[name] = 0

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        def flush():
            self.counts[name] = cell[0]

        wrapper.__wrapped__ = fn
        wrapper.flush = flush
        return wrapper

    # -- installing ----------------------------------------------------

    def replace(self, owners: Iterable[object], original, wrapper) -> int:
        """Rebind every attribute of ``owners`` (modules or classes) that
        holds ``original`` to ``wrapper``; returns how many were rebound."""
        n = 0
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, attr, wrapper)
                    self._patches.append((owner, attr, original))
                    n += 1
        if n == 0:
            raise LookupError(f"{getattr(original, '__qualname__', original)} is bound nowhere")
        return n

    def restore(self) -> None:
        flushed = set()
        for owner, attr, original in reversed(self._patches):
            wrapper = vars(owner)[attr]
            flush = getattr(wrapper, "flush", None)
            if flush is not None and id(wrapper) not in flushed:
                flush()
                flushed.add(id(wrapper))
            setattr(owner, attr, original)
        self._patches.clear()


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so a span's children never overlap and their
    durations add up to the part of its interval they cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


def inclusive_time(spans: list[Span], names: set[str]) -> float:
    """Total time inside spans named in ``names``, each instant counted once
    (a matching span nested in another matching span is skipped)."""
    covered = [False] * len(spans)
    total = 0.0
    for i, s in enumerate(spans):
        p = s.parent
        covered[i] = p >= 0 and (covered[p] or spans[p].name in names)
        if s.name in names and not covered[i]:
            total += s.duration
    return total


def children(spans: list[Span], parent_names: set[str]) -> dict[int, list[Span]]:
    """Direct children, in start order, of every span named in ``parent_names``."""
    out: dict[int, list[Span]] = {}
    for i, s in enumerate(spans):
        if s.name in parent_names:
            out[i] = []
        if s.parent in out:
            out[s.parent].append(s)
    return out
