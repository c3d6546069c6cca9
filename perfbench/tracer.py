"""In-memory span recorder and self-time accounting for the traced run.

A span is one call into a layer: a name ``"<layer>.<operation>"``, a
start and an end on the system-wide monotonic clock, the span that was
open when it began (its parent), the campaign task it worked for, and
the process that ran it.  Spans are kept in memory and written out
once, when the traced process ends (pool workers append theirs to a
side file after each work item, see ``traced_campaign.py``).

This module only records and sums; it installs nothing.  The self
time of a span is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import os
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Any, Iterable


@dataclass
class Span:
    span_id: int
    parent: "int | None"
    name: str
    start_ns: int
    end_ns: int = 0
    task: "str | None" = None
    pid: int = 0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    def as_row(self) -> list:
        return [self.span_id, self.parent, self.name, self.start_ns,
                self.end_ns, self.task, self.pid]

    @classmethod
    def from_row(cls, row: "list") -> "Span":
        return cls(*row)


@dataclass
class Tracer:
    """Span stack plus named counters of one process.

    Span ids are ``pid << 32 | n`` so ids from forked pool workers never
    collide with the parent's.
    """

    spans: "list[Span]" = field(default_factory=list)
    counts: "Counter[str]" = field(default_factory=Counter)
    task: "str | None" = None
    _stack: "list[Span]" = field(default_factory=list)
    _next: int = 0
    pid: int = field(default_factory=os.getpid)

    def open(self, name: str, start_ns: "int | None" = None) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        self._next += 1
        span = Span((self.pid << 32) | self._next, parent, name,
                    time.monotonic_ns() if start_ns is None else start_ns,
                    task=self.task, pid=self.pid)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        end_ns = time.monotonic_ns()
        if self._stack[-1] is not span:
            raise RuntimeError(f"span {span.name} closed out of order "
                               f"(innermost open span is "
                               f"{self._stack[-1].name})")
        self._stack.pop()
        span.end_ns = end_ns
        self.spans.append(span)

    def in_layer(self, layer: str) -> bool:
        """Whether a span of ``layer`` is open."""
        return any(span.layer == layer for span in self._stack)

    def in_span(self, name: str) -> bool:
        """Whether a span called ``name`` is open."""
        return any(span.name == name for span in self._stack)

    def reset_after_fork(self) -> None:
        """Forget the parent's spans and open stack in a forked worker."""
        self.spans = []
        self.counts.clear()         # in place: wrappers hold a reference
        self._stack = []
        self._next = 0
        self.task = None
        self.pid = os.getpid()

    def drain(self) -> "dict[str, Any]":
        """Hand over (and forget) what this process recorded so far."""
        payload = {"pid": self.pid,
                   "spans": [span.as_row() for span in self.spans],
                   "counts": dict(self.counts)}
        self.spans = []
        self.counts.clear()
        return payload


def self_times(spans: "Iterable[Span]") -> "dict[int, int]":
    """Self time (ns) of every span: duration minus its children's.

    Children of one span never overlap each other (one process runs one
    stack), so their durations sum to the time they cover.
    """
    spans = list(spans)
    covered: "dict[int, int]" = defaultdict(int)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration_ns
    return {span.span_id: span.duration_ns - covered[span.span_id]
            for span in spans}


def layer_self_seconds(spans: "Iterable[Span]") -> "dict[str, float]":
    """Sum of self time per layer, in seconds."""
    spans = list(spans)
    own = self_times(spans)
    totals: "dict[str, float]" = defaultdict(float)
    for span in spans:
        totals[span.layer] += own[span.span_id] / 1e9
    return dict(totals)


def total_seconds(spans: "Iterable[Span]", *names: str) -> float:
    """Summed duration of the named spans.

    A span nested (at any depth) inside another span of the same set is
    skipped, so recursion is not counted twice.
    """
    spans = list(spans)
    chosen = [span for span in spans if span.name in names]
    by_id = {span.span_id: span for span in spans}
    wanted = {span.span_id for span in chosen}
    total = 0
    for span in chosen:
        if _has_ancestor_in(span, by_id, wanted):
            continue
        total += span.duration_ns
    return total / 1e9


def _has_ancestor_in(span: Span, by_id: "dict[int, Span]",
                     ids: "set[int]") -> bool:
    parent = span.parent
    while parent is not None:
        if parent in ids:
            return True
        ancestor = by_id.get(parent)
        parent = ancestor.parent if ancestor is not None else None
    return False
