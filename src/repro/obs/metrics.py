"""The metrics registry: counters, gauges and quantile sketches.

One :class:`MetricsRegistry` accumulates every instrument of a run.
Instruments are addressed by a metric name plus optional labels
(``counter("epm.patterns_discovered", dimension="mu")``); the same
``(name, labels)`` pair always returns the same instrument, so
increments from different call sites merge.  Every distribution
(LSH bucket sizes, batch sizes, event gaps) is one
:class:`~repro.obs.sketch.QuantileSketch`: quantiles within a relative
error bound over any value range, in bounded memory.  A registry
freezes into a :class:`MetricsSnapshot` — a plain-data, picklable
record with a deterministic JSON encoding (keys sorted, no wall-clock
fields), which is what rides on
:class:`~repro.experiments.scenario.ScenarioRun` and lands in
``--metrics-out`` files and benchmark records.

Instrumented code never receives a registry explicitly: it reads the
process-wide *active* registry via :func:`active`.  The default is
:data:`NULL_REGISTRY`, whose instruments are shared no-ops — with
observability disabled an instrumentation site costs two attribute
lookups and a no-op call.  Orchestrators (the scenario runner, the CLI,
tests) install a recording registry with :func:`use`.

The registry is designed for *orchestration-point* instrumentation:
bulk increments at stage boundaries, recorded by the one thread that
runs the pipeline.  It has no cross-thread locking.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.obs.sketch import QuantileSketch
from repro.util.validation import require


def metric_key(name: str, labels: Mapping[str, object]) -> str:
    """Render ``(name, labels)`` as the canonical ``name{k=v,...}`` key.

    >>> metric_key("epm.clusters", {"dimension": "mu"})
    'epm.clusters{dimension=mu}'
    >>> metric_key("cache.hit", {})
    'cache.hit'
    """
    require(bool(name), "metric name must be non-empty")
    if not labels:
        return name
    inner = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{name}{{{inner}}}"


def base_name(key: str) -> str:
    """The metric name of a rendered key, labels stripped.

    >>> base_name("epm.clusters{dimension=mu}")
    'epm.clusters'
    """
    return key.split("{", 1)[0]


def parse_key(key: str) -> tuple[str, dict[str, str]]:
    """Split a rendered ``name{k=v,...}`` key back into name and labels.

    >>> parse_key("epm.clusters{dimension=mu}")
    ('epm.clusters', {'dimension': 'mu'})
    >>> parse_key("cache.hit")
    ('cache.hit', {})
    """
    if "{" not in key:
        return key, {}
    name, _brace, inner = key.partition("{")
    labels: dict[str, str] = {}
    for part in inner.rstrip("}").split(","):
        if part:
            label, _eq, value = part.partition("=")
            labels[label] = value
    return name, labels


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        require(amount >= 0, "counters only go up")
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = value


#: Snapshot schema version; bump on incompatible layout changes.
#: 3: every distribution is one sketch under its plain name.  Readers
#:    accept schema 3 only (the snapshot of manifest schema 8).
SNAPSHOT_SCHEMA = 3


@dataclass
class MetricsSnapshot:
    """A frozen, picklable export of one registry's state.

    Keys are rendered ``name{labels}`` strings; the encoding is
    deterministic (sorted keys) so two runs of the same seed produce
    byte-identical counter/gauge sections (sketches of wall-clock
    latencies may differ, by design).
    """

    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    sketches: dict[str, dict] = field(default_factory=dict)

    def counter(self, name: str, **labels: object) -> float:
        """Value of one counter (0 if never touched)."""
        return self.counters.get(metric_key(name, labels), 0)

    def gauge(self, name: str, **labels: object) -> float:
        """Value of one gauge (0 if never set)."""
        return self.gauges.get(metric_key(name, labels), 0)

    def total(self, name: str) -> float:
        """Sum of one counter across all label combinations."""
        return sum(
            value for key, value in self.counters.items() if base_name(key) == name
        )

    def names(self) -> set[str]:
        """Every distinct metric name present, labels stripped."""
        return {
            base_name(key)
            for section in (self.counters, self.gauges, self.sketches)
            for key in section
        }

    def as_dict(self) -> dict:
        """Plain-dict form (the JSON layout), sections key-sorted."""
        return {
            "schema": SNAPSHOT_SCHEMA,
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "sketches": dict(sorted(self.sketches.items())),
        }

    def to_json(self) -> str:
        """Deterministic JSON encoding of the snapshot."""
        return json.dumps(self.as_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_dict(cls, payload: Mapping) -> "MetricsSnapshot":
        """Rebuild a snapshot from its :meth:`as_dict` form."""
        require(
            payload.get("schema") == SNAPSHOT_SCHEMA,
            f"unsupported metrics snapshot schema {payload.get('schema')!r}",
        )
        return cls(
            counters=dict(payload.get("counters", {})),
            gauges=dict(payload.get("gauges", {})),
            sketches=dict(payload.get("sketches", {})),
        )


class MetricsRegistry:
    """The live instrument store; freeze with :meth:`snapshot`."""

    #: Whether instruments actually record (False only on the null registry).
    recording = True

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._sketches: dict[str, QuantileSketch] = {}

    def counter(self, name: str, **labels: object) -> Counter:
        """The counter for ``(name, labels)``, created on first use."""
        key = metric_key(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, name: str, **labels: object) -> Gauge:
        """The gauge for ``(name, labels)``, created on first use."""
        key = metric_key(name, labels)
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge()
        return instrument

    def sketch(self, name: str, **labels: object) -> QuantileSketch:
        """The quantile sketch for ``(name, labels)``, created on first use."""
        key = metric_key(name, labels)
        instrument = self._sketches.get(key)
        if instrument is None:
            instrument = self._sketches[key] = QuantileSketch()
        return instrument

    def snapshot(self) -> MetricsSnapshot:
        """Freeze the current state into a plain-data snapshot."""
        return MetricsSnapshot(
            counters={key: c.value for key, c in sorted(self._counters.items())},
            gauges={key: g.value for key, g in sorted(self._gauges.items())},
            sketches={key: s.as_dict() for key, s in sorted(self._sketches.items())},
        )


class _NullInstrument:
    """Shared no-op stand-in for every instrument kind."""

    __slots__ = ()

    def inc(self, amount: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullMetricsRegistry:
    """The disabled registry: every instrument is a shared no-op."""

    recording = False

    def counter(self, name: str, **labels: object) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, **labels: object) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def sketch(self, name: str, **labels: object) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot()


#: The process-wide default: observability off.
NULL_REGISTRY = NullMetricsRegistry()

_active: MetricsRegistry | NullMetricsRegistry = NULL_REGISTRY


def active() -> MetricsRegistry | NullMetricsRegistry:
    """The registry instrumentation sites currently record into."""
    return _active


def activate(
    registry: MetricsRegistry | NullMetricsRegistry,
) -> MetricsRegistry | NullMetricsRegistry:
    """Install ``registry`` as the active one; returns the previous."""
    global _active
    previous = _active
    _active = registry
    return previous


@contextmanager
def use(
    registry: MetricsRegistry | NullMetricsRegistry,
) -> Iterator[MetricsRegistry | NullMetricsRegistry]:
    """Activate ``registry`` for the duration of the block."""
    previous = activate(registry)
    try:
        yield registry
    finally:
        activate(previous)
