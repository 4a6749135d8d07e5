"""Hierarchical trace spans: the run's timing tree.

A :class:`Tracer` maintains a stack of open :class:`TraceSpan`s; every
``tracer.span(name)`` block becomes a child of the innermost open span,
so nested instrumentation (a scenario stage opening LSH sub-phases)
yields a tree rather than a flat stage list.  Spans carry arbitrary
attributes (sample counts, cache status, candidate-pair counts) set via
:meth:`TraceSpan.set`.

Like the metrics registry, the tracer is ambient: library code opens
spans on the *current* tracer (:func:`current_tracer`), which defaults
to a shared no-op, so un-orchestrated calls cost almost nothing.  The
scenario runner installs a real tracer via :func:`use_tracer` and
exports the finished root with :meth:`TraceSpan.export`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.obs import events as obs_events
from repro.obs.profile import SpanProbe
from repro.util.validation import require


@dataclass
class TraceSpan:
    """One named span of work: duration, attributes, child spans."""

    name: str
    seconds: float = 0.0
    attributes: dict[str, object] = field(default_factory=dict)
    children: list["TraceSpan"] = field(default_factory=list)
    #: Offset of the span's open relative to the tracer's epoch, in
    #: seconds.  ``None`` on hand-built trees; the tracer always sets
    #: it, which is what gives the Chrome-trace exporter real
    #: timestamps instead of a synthesized sequential layout.
    start: float | None = None

    def set(self, **attributes: object) -> None:
        """Attach/overwrite attributes on this span."""
        self.attributes.update(attributes)

    def child(self, name: str) -> "TraceSpan":
        """Create and append a child span (untimed; the tracer times it)."""
        require(bool(name), "span name must be non-empty")
        span = TraceSpan(name)
        self.children.append(span)
        return span

    def find(self, name: str) -> "TraceSpan | None":
        """First span named ``name`` in this subtree (depth-first)."""
        if self.name == name:
            return self
        for child in self.children:
            found = child.find(name)
            if found is not None:
                return found
        return None

    def export(self) -> dict:
        """The JSON-ready span tree (used by run manifests)."""
        payload: dict = {"name": self.name, "seconds": round(self.seconds, 6)}
        if self.start is not None:
            payload["start"] = round(self.start, 6)
        if self.attributes:
            payload["attributes"] = {
                key: self.attributes[key] for key in sorted(self.attributes)
            }
        if self.children:
            payload["children"] = [child.export() for child in self.children]
        return payload


class Tracer:
    """Stack-shaped span recorder; the root span is the whole run.

    Every span records its CPU time and the process's peak RSS as span
    attributes (see :class:`repro.obs.profile.SpanProbe`), so each
    manifest carries a per-stage resource breakdown.  The probe is one
    ``process_time`` and one ``getrusage`` call per span close.
    """

    def __init__(self, name: str = "run") -> None:
        self.root = TraceSpan(name, start=0.0)
        self._stack: list[TraceSpan] = [self.root]
        self._epoch = time.perf_counter()
        self._probe = SpanProbe()

    @property
    def current(self) -> TraceSpan:
        """The innermost open span."""
        return self._stack[-1]

    @contextmanager
    def span(self, name: str, **attributes: object) -> Iterator[TraceSpan]:
        """Open a child of the current span for the duration of the block.

        Every span open/close is also announced on the ambient event
        bus (``stage.start`` / ``stage.finish``), so a tailed event
        stream shows the same stage structure the manifest's span tree
        records after the fact — the two views are cross-checked by
        ``repro obs validate``.
        """
        span = self.current.child(name)
        if attributes:
            span.set(**attributes)
        self._stack.append(span)
        bus = obs_events.active_bus()
        bus.emit("stage.start", stage=name, depth=len(self._stack) - 1)
        token = self._probe.begin()
        started = time.perf_counter()
        span.start = started - self._epoch
        try:
            yield span
        finally:
            span.seconds += time.perf_counter() - started
            span.set(**self._probe.end(token))
            self._stack.pop()
            bus.emit("stage.finish", stage=name, seconds=round(span.seconds, 6))

    def finish(self) -> TraceSpan:
        """Close out: the root's duration becomes the sum of its children."""
        require(len(self._stack) == 1, "cannot finish a tracer with open spans")
        if not self.root.seconds:
            self.root.seconds = sum(child.seconds for child in self.root.children)
        return self.root


class _NullSpan:
    """Shared throwaway span handed out by the null tracer."""

    __slots__ = ()

    def set(self, **attributes: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: spans are free and record nothing."""

    @contextmanager
    def span(self, name: str, **attributes: object) -> Iterator[_NullSpan]:
        yield _NULL_SPAN


#: The process-wide default: tracing off.
NULL_TRACER = NullTracer()

_active: Tracer | NullTracer = NULL_TRACER


def current_tracer() -> Tracer | NullTracer:
    """The tracer instrumentation sites currently open spans on."""
    return _active


def activate_tracer(tracer: Tracer | NullTracer) -> Tracer | NullTracer:
    """Install ``tracer`` as the current one; returns the previous."""
    global _active
    previous = _active
    _active = tracer
    return previous


@contextmanager
def use_tracer(tracer: Tracer | NullTracer) -> Iterator[Tracer | NullTracer]:
    """Activate ``tracer`` for the duration of the block."""
    previous = activate_tracer(tracer)
    try:
        yield tracer
    finally:
        activate_tracer(previous)
