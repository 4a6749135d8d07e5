"""The metrics registry: counters, gauges, sketches, watermarks.

One :class:`MetricsRegistry` accumulates every instrument of a run.
Instruments are addressed by a metric name plus optional labels
(``counter("epm.patterns_discovered", dimension="mu")``); the same
``(name, labels)`` pair always returns the same instrument, so
increments from different call sites merge.  Every distribution
(chunk seconds, LSH bucket sizes, batch sizes) is one
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
bulk increments at stage boundaries, per-chunk observations gathered in
the coordinating thread.  It deliberately has no cross-thread locking
on the hot increment path; worker threads/processes must not mutate
instruments directly (the parallel executors return per-chunk data to
the coordinator, which records it).
"""

from __future__ import annotations

import json
import threading
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

    >>> parse_key("executor.chunks{backend=serial}")
    ('executor.chunks', {'backend': 'serial'})
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


class Watermark:
    """A high-water mark: keeps the maximum of every update.

    Unlike a :class:`Gauge` (last write wins — the right semantics for
    replayed point-in-time values), a watermark merge is commutative,
    so per-worker peaks (RSS, queue depth, backlog) fold into the same
    run-level value regardless of chunk completion order.
    """

    __slots__ = ("value", "count")

    def __init__(self) -> None:
        self.value: float = 0.0
        self.count: int = 0

    def update(self, value: float) -> None:
        """Raise the mark to ``value`` if it is the new peak."""
        value = float(value)
        if self.count == 0 or value > self.value:
            self.value = value
        self.count += 1


#: Snapshot schema version; bump on incompatible layout changes.
#: 2: added ``sketches`` and ``watermarks`` sections (PR 9).
#: 3: every distribution is one sketch under its plain name; the
#:    fixed-bucket section and the ``_sketch`` twins are gone.
SNAPSHOT_SCHEMA = 3

#: Snapshot schemas :func:`upgrade_snapshot` maps to the current one.
LEGACY_SNAPSHOT_SCHEMAS = (1, 2)


def upgrade_snapshot(payload: Mapping) -> dict:
    """A snapshot payload in the current layout (schema 1/2 upgraded).

    Legacy snapshots carry a fixed-bucket ``histograms`` section, and
    schema 2 recorded some distributions twice: as a histogram and as a
    ``<name>_sketch`` twin.  The upgrade drops the ``histograms``
    section and renames each ``<name>_sketch{labels}`` key to
    ``<name>{labels}``, so a stored run keeps a continuous quantile
    series under the plain name; a distribution an old run recorded
    only as a histogram reads as absent.  Any other payload comes back
    as an untouched copy, so schema checks still reject unknown
    versions.
    """
    if payload.get("schema") not in LEGACY_SNAPSHOT_SCHEMAS:
        return dict(payload)
    upgraded = {key: value for key, value in payload.items() if key != "histograms"}
    upgraded["schema"] = SNAPSHOT_SCHEMA
    upgraded["sketches"] = {}
    for key, value in payload.get("sketches", {}).items():
        name, brace, labels = key.partition("{")
        upgraded["sketches"][name.removesuffix("_sketch") + brace + labels] = value
    return upgraded


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
    watermarks: dict[str, float] = field(default_factory=dict)

    def counter(self, name: str, **labels: object) -> float:
        """Value of one counter (0 if never touched)."""
        return self.counters.get(metric_key(name, labels), 0)

    def gauge(self, name: str, **labels: object) -> float:
        """Value of one gauge (0 if never set)."""
        return self.gauges.get(metric_key(name, labels), 0)

    def watermark(self, name: str, **labels: object) -> float:
        """Value of one high-water mark (0 if never updated)."""
        return self.watermarks.get(metric_key(name, labels), 0)

    def total(self, name: str) -> float:
        """Sum of one counter across all label combinations."""
        return sum(
            value for key, value in self.counters.items() if base_name(key) == name
        )

    def names(self) -> set[str]:
        """Every distinct metric name present, labels stripped."""
        return {
            base_name(key)
            for section in (self.counters, self.gauges, self.sketches, self.watermarks)
            for key in section
        }

    def as_dict(self) -> dict:
        """Plain-dict form (the JSON layout), sections key-sorted."""
        return {
            "schema": SNAPSHOT_SCHEMA,
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "sketches": dict(sorted(self.sketches.items())),
            "watermarks": dict(sorted(self.watermarks.items())),
        }

    def to_json(self) -> str:
        """Deterministic JSON encoding of the snapshot."""
        return json.dumps(self.as_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_dict(cls, payload: Mapping) -> "MetricsSnapshot":
        """Rebuild a snapshot from its :meth:`as_dict` form (legacy
        schemas pass through :func:`upgrade_snapshot`)."""
        payload = upgrade_snapshot(payload)
        require(
            payload.get("schema") == SNAPSHOT_SCHEMA,
            f"unsupported metrics snapshot schema {payload.get('schema')!r}",
        )
        return cls(
            counters=dict(payload.get("counters", {})),
            gauges=dict(payload.get("gauges", {})),
            sketches=dict(payload.get("sketches", {})),
            watermarks=dict(payload.get("watermarks", {})),
        )


class MetricsRegistry:
    """The live instrument store; freeze with :meth:`snapshot`."""

    #: Whether instruments actually record (False only on the null registry).
    recording = True

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._sketches: dict[str, QuantileSketch] = {}
        self._watermarks: dict[str, Watermark] = {}
        self._create_lock = threading.Lock()

    def counter(self, name: str, **labels: object) -> Counter:
        """The counter for ``(name, labels)``, created on first use."""
        key = metric_key(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            with self._create_lock:
                instrument = self._counters.setdefault(key, Counter())
        return instrument

    def gauge(self, name: str, **labels: object) -> Gauge:
        """The gauge for ``(name, labels)``, created on first use."""
        key = metric_key(name, labels)
        instrument = self._gauges.get(key)
        if instrument is None:
            with self._create_lock:
                instrument = self._gauges.setdefault(key, Gauge())
        return instrument

    def sketch(self, name: str, **labels: object) -> QuantileSketch:
        """The quantile sketch for ``(name, labels)``, created on first use."""
        key = metric_key(name, labels)
        instrument = self._sketches.get(key)
        if instrument is None:
            with self._create_lock:
                instrument = self._sketches.setdefault(key, QuantileSketch())
        return instrument

    def watermark(self, name: str, **labels: object) -> Watermark:
        """The high-water mark for ``(name, labels)``, created on use."""
        key = metric_key(name, labels)
        instrument = self._watermarks.get(key)
        if instrument is None:
            with self._create_lock:
                instrument = self._watermarks.setdefault(key, Watermark())
        return instrument

    def snapshot(self) -> MetricsSnapshot:
        """Freeze the current state into a plain-data snapshot."""
        return MetricsSnapshot(
            counters={key: c.value for key, c in sorted(self._counters.items())},
            gauges={key: g.value for key, g in sorted(self._gauges.items())},
            sketches={key: s.as_dict() for key, s in sorted(self._sketches.items())},
            watermarks={key: w.value for key, w in sorted(self._watermarks.items())},
        )

    def merge_snapshot(self, snapshot: "MetricsSnapshot | Mapping") -> None:
        """Fold a snapshot's state into this registry.

        Counters add, gauges take the merged value (last write wins, so
        merging deltas in submission order reproduces a serial run),
        sketches add bin counts (a payload of another ``(alpha,
        max_bins)`` shape is rejected) and watermarks keep the maximum —
        the merge path the parallel executors use to forward worker-side
        telemetry to the coordinating process (see
        :mod:`repro.util.parallel`).
        """
        payload = snapshot.as_dict() if isinstance(snapshot, MetricsSnapshot) else snapshot
        for key, value in payload.get("counters", {}).items():
            name, labels = parse_key(key)
            self.counter(name, **labels).inc(value)
        for key, value in payload.get("gauges", {}).items():
            name, labels = parse_key(key)
            self.gauge(name, **labels).set(value)
        for key, sketch_payload in payload.get("sketches", {}).items():
            name, labels = parse_key(key)
            self.sketch(name, **labels).merge(sketch_payload)
        for key, value in payload.get("watermarks", {}).items():
            name, labels = parse_key(key)
            self.watermark(name, **labels).update(value)


class _NullInstrument:
    """Shared no-op stand-in for every instrument kind."""

    __slots__ = ()

    def inc(self, amount: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def update(self, value: float) -> None:
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

    def watermark(self, name: str, **labels: object) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot()


#: The process-wide default: observability off.
NULL_REGISTRY = NullMetricsRegistry()

_active: MetricsRegistry | NullMetricsRegistry = NULL_REGISTRY

#: Per-thread override of the active registry — what lets a parallel
#: executor capture one chunk's worth of telemetry in a worker thread
#: without racing the coordinator's registry (see :func:`capture`).
_tls = threading.local()


def active() -> MetricsRegistry | NullMetricsRegistry:
    """The registry instrumentation sites currently record into.

    A thread-local :func:`capture` override wins over the process-wide
    registry installed by :func:`activate`/:func:`use`.
    """
    override = getattr(_tls, "registry", None)
    if override is not None:
        return override
    return _active


@contextmanager
def capture() -> Iterator[MetricsRegistry]:
    """Divert this thread's instrumentation into a fresh registry.

    The parallel executors run every mapped chunk under a capture so
    worker-side increments are recorded exactly once, snapshotted, and
    merged into the coordinator's registry in chunk order — identical
    totals on the serial, thread and process backends.
    """
    registry = MetricsRegistry()
    previous = getattr(_tls, "registry", None)
    _tls.registry = registry
    try:
        yield registry
    finally:
        _tls.registry = previous


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
