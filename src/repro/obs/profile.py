"""Span profiling: per-span resource probes and span-tree exporters.

Two halves, both operating on the :mod:`repro.obs.trace` layer:

* :class:`SpanProbe` is the per-span resource sampler every
  :class:`~repro.obs.trace.Tracer` runs around every span: CPU time
  (``time.process_time``) and peak RSS (``resource.getrusage``,
  unavailable on non-Unix platforms and then silently omitted).  The
  results land as ordinary span attributes (:data:`PROFILE_ATTRS`), so
  every manifest's span tree carries a per-stage CPU/RSS breakdown.

* The exporters turn an *exported* span tree (the plain-dict form of
  :meth:`TraceSpan.export`, i.e. exactly what a stored run manifest
  carries) into Chrome trace-event JSON (:func:`chrome_trace`, loadable
  in ``chrome://tracing`` / Perfetto) or a self-contained
  flamegraph-style text view (:func:`flame_view`); ``repro obs export
  --format chrome|flame`` renders both.  Operating on the
  dict form means any stored manifest can be exported; a span without
  a recorded start is laid out sequentially inside its parent.
"""

from __future__ import annotations

import time
from typing import Iterator, Mapping

try:  # pragma: no cover - resource is always present on Linux CI
    import resource
except ImportError:  # pragma: no cover - non-Unix platforms
    resource = None  # type: ignore[assignment]

#: Attribute names the tracer attaches to every span.
PROFILE_ATTRS = ("cpu_seconds", "max_rss_kb")


def _max_rss_kb() -> int | None:
    """Process peak RSS in KiB, or ``None`` where unavailable."""
    if resource is None:
        return None
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


class SpanProbe:
    """Samples CPU time at span open and attributes the delta at close.

    Peak RSS is a process-level high-water mark, so per span it reports
    the high-water mark *at span close* — monotone over the run, which is
    exactly what makes the first RSS jump attributable to a stage.
    """

    __slots__ = ()

    def begin(self) -> float:
        """Sample CPU time at span open; returns an opaque token."""
        return time.process_time()

    def end(self, token: float) -> dict[str, object]:
        """Attribute deltas since ``token``; keys from :data:`PROFILE_ATTRS`."""
        attrs: dict[str, object] = {
            "cpu_seconds": round(time.process_time() - token, 6)
        }
        rss = _max_rss_kb()
        if rss is not None:
            attrs["max_rss_kb"] = rss
        return attrs


def _as_tree(tree: object) -> Mapping:
    """Accept an exported dict tree or a live ``TraceSpan`` duck-typed."""
    if isinstance(tree, Mapping):
        return tree
    export = getattr(tree, "export", None)
    if callable(export):
        return export()
    raise TypeError(f"not a span tree: {tree!r}")


def _walk_with_starts(
    node: Mapping, default_start: float
) -> Iterator[tuple[Mapping, float]]:
    """Yield ``(span, start_seconds)`` pre-order, synthesizing starts.

    A span without a recorded ``start`` opens where its predecessor
    sibling ended (sequential layout), which is the truth for the
    serial pipeline and a readable approximation otherwise.
    """
    start = float(node.get("start", default_start))
    yield node, start
    cursor = start
    for child in node.get("children", ()):
        child_start = float(child.get("start", cursor))
        yield from _walk_with_starts(child, child_start)
        cursor = child_start + float(child.get("seconds", 0.0))


def chrome_trace(tree: object, *, pid: int = 1, tid: int = 1) -> dict:
    """Chrome trace-event JSON of a span tree (one complete event per span).

    The output loads directly in ``chrome://tracing`` and Perfetto:
    every span becomes one ``"ph": "X"`` (complete) event with
    microsecond ``ts``/``dur`` and its attributes under ``args``.
    """
    tree = _as_tree(tree)
    events = []
    for span, start in _walk_with_starts(tree, 0.0):
        event: dict = {
            "name": str(span.get("name", "?")),
            "ph": "X",
            "ts": max(0, round(start * 1e6)),
            "dur": max(0, round(float(span.get("seconds", 0.0)) * 1e6)),
            "pid": pid,
            "tid": tid,
        }
        attributes = span.get("attributes")
        if attributes:
            event["args"] = dict(attributes)
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def flame_view(tree: object, *, width: int = 40) -> str:
    """Flamegraph-style text rendering of a span tree.

    Each span gets one line: an indented name, a bar proportional to
    its share of the root's duration, the duration, and — when the span
    carries them — its CPU seconds and peak RSS.
    """
    tree = _as_tree(tree)
    root_seconds = float(tree.get("seconds", 0.0)) or 1.0
    lines = []
    for depth, span in _walk_dicts(tree):
        seconds = float(span.get("seconds", 0.0))
        share = min(1.0, seconds / root_seconds)
        bar = "▇" * max(1, round(share * width)) if seconds else ""
        label = "  " * depth + str(span.get("name", "?"))
        line = f"{label:<28} {bar:<{width}} {seconds:9.3f} s {share:6.1%}"
        attributes = span.get("attributes", {})
        extras = []
        if "cpu_seconds" in attributes:
            extras.append(f"cpu={attributes['cpu_seconds']:.3f}s")
        if "max_rss_kb" in attributes:
            extras.append(f"rss={attributes['max_rss_kb']}KiB")
        if extras:
            line += "  " + " ".join(extras)
        lines.append(line.rstrip())
    return "\n".join(lines)


def _walk_dicts(node: Mapping, depth: int = 0) -> Iterator[tuple[int, Mapping]]:
    yield depth, node
    for child in node.get("children", ()):
        yield from _walk_dicts(child, depth + 1)
