"""The live pipeline event stream: structured, sequenced, transportable.

While metrics and manifests describe a run *after the fact*, the event
stream is what makes the pipeline observable *in flight*: every stage
open/close, chunk completion, cache interaction, cluster-count
milestone and golden-deviation alert becomes one
:class:`PipelineEvent` — schema-versioned, monotonically sequenced by
the emitting :class:`EventBus`, and serialised as one JSON object per
line so a sink file can be tailed with ``repro obs tail`` (or plain
``tail -f``) while the run is still going.

Transports decouple emission from delivery:

* :class:`MemoryTransport` — an in-process list (tests, the CLI);
* :class:`RingTransport`   — a capacity-bounded buffer keeping the
  newest events, evictions counted per kind (long-lived runs);
* :class:`FileTransport`  — a JSON-lines sink, flushed per event so a
  crash loses nothing that was emitted; optional size-based rotation
  keeps disk bounded, with rotated-out events drop-accounted;
* :class:`QueueTransport` — a ``multiprocessing`` queue producer.  The
  process-pool executor installs a queue-backed bus inside each worker
  (see :mod:`repro.util.parallel`), so events emitted in workers are
  forwarded to the parent and re-sequenced onto its bus — the fix for
  the historical worker-telemetry loss;
* :class:`ProgressRenderer` — a terminal transport deriving per-stage
  item counts and an ETA (median chunk latency via
  :meth:`~repro.obs.sketch.QuantileSketch.quantile`) from the stream.

Like the metrics registry and the tracer, the bus is ambient
(:func:`active_bus` / :func:`use_bus`) and defaults to a shared no-op,
so an un-orchestrated ``emit`` costs one attribute lookup.  Event
emission is execution-only telemetry: it never contributes to scenario
fingerprints or artifact digests, and the serial/thread/process
backends stay bit-identical on pipeline outputs with the stream on.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Mapping, Sequence

from repro.obs.sketch import QuantileSketch
from repro.util.validation import require

#: Event record schema version; bump on incompatible layout changes.
EVENT_SCHEMA = 1

#: The event taxonomy.  Mirrored in ``docs/ARCHITECTURE.md``; the
#: validator (:func:`repro.obs.validate.validate_events`) flags any
#: kind outside this set, so extending the taxonomy means extending
#: this tuple (and the docs) first.
EVENT_KINDS = (
    "run.start",
    "run.finish",
    "stage.start",
    "stage.finish",
    "chunk.plan",
    "chunk.finish",
    "cache.hit",
    "cache.miss",
    "cache.store",
    "cache.evict",
    "cache.stage_hit",
    "cache.stage_miss",
    "cache.stage_store",
    "cluster.milestone",
    "golden.deviation",
    "worker.failure",
    "window.rollup",
    "health.finding",
    "health.summary",
    "transport.drop",
    "classify.start",
    "classify.finish",
)

_KNOWN_KINDS = frozenset(EVENT_KINDS)


@dataclass(frozen=True)
class PipelineEvent:
    """One sequenced occurrence on the event stream."""

    seq: int
    t: float
    kind: str
    fields: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """Plain-dict form (the JSON-line layout), fields key-sorted."""
        return {
            "schema": EVENT_SCHEMA,
            "seq": self.seq,
            "t": round(self.t, 6),
            "kind": self.kind,
            "fields": {key: self.fields[key] for key in sorted(self.fields)},
        }

    def to_json(self) -> str:
        """Compact single-line JSON encoding."""
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, payload: Mapping) -> "PipelineEvent":
        """Rebuild an event from its :meth:`as_dict` form."""
        require(
            payload.get("schema") == EVENT_SCHEMA,
            f"unsupported event schema {payload.get('schema')!r}",
        )
        return cls(
            seq=int(payload["seq"]),
            t=float(payload.get("t", 0.0)),
            kind=str(payload["kind"]),
            fields=dict(payload.get("fields", {})),
        )


def render_event(event: PipelineEvent) -> str:
    """One human-readable line per event (the ``repro obs tail`` view)."""
    fields = " ".join(f"{key}={event.fields[key]}" for key in sorted(event.fields))
    line = f"{event.seq:>6}  {event.t:9.3f}s  {event.kind:<18}"
    return f"{line} {fields}".rstrip()


class MemoryTransport:
    """Keeps every delivered event in an in-process list."""

    name = "memory"

    def __init__(self) -> None:
        self.events: list[PipelineEvent] = []

    def handle(self, event: PipelineEvent) -> None:
        self.events.append(event)

    def close(self) -> None:
        pass


#: Default :class:`RingTransport` capacity.
DEFAULT_RING_CAPACITY = 4096


class RingTransport:
    """A capacity-bounded in-process buffer: keeps the newest events.

    The memory-transport shape a long-lived run can actually afford:
    a deque of the last ``capacity`` events, O(capacity) resident no
    matter how many stream through.  Overflow is never silent — each
    evicted event is counted per kind in :meth:`drops`, which the bus
    aggregates into ``events.dropped`` metrics and the ``transport.drop``
    accounting event at run teardown (transports must not emit on the
    bus from inside ``handle``: the bus lock is held during dispatch).
    """

    name = "ring"

    def __init__(self, capacity: int = DEFAULT_RING_CAPACITY) -> None:
        require(capacity >= 1, "ring capacity must be >= 1")
        self.capacity = int(capacity)
        self.events: deque[PipelineEvent] = deque()
        self._drops: dict[str, int] = {}

    def handle(self, event: PipelineEvent) -> None:
        if len(self.events) >= self.capacity:
            evicted = self.events.popleft()
            self._drops[evicted.kind] = self._drops.get(evicted.kind, 0) + 1
        self.events.append(event)

    def drops(self) -> dict[str, int]:
        """Events evicted so far, counted per kind (key-sorted)."""
        return {kind: self._drops[kind] for kind in sorted(self._drops)}

    def close(self) -> None:
        pass


class FileTransport:
    """Appends one JSON line per event, flushed eagerly.

    The per-event flush is what makes the sink tailable during the run
    and loss-free on a crash; it costs one small write syscall per
    event, which the event-overhead benchmark keeps honest.

    With ``max_bytes`` set the sink rotates size-wise: when the next
    line would push the current file past the cap, the file shifts to
    ``<path>.1`` (existing backups shift up, the oldest of ``backups``
    is deleted) and a fresh file opens at ``path`` — bounded disk for a
    long-lived run.  Every event rotated out of the *live* file is
    counted per kind in :meth:`drops` — the same accounting contract as
    the ring, stated against the file a reader actually tails; retained
    backups are a forensic courtesy on top, not part of the invariant.
    """

    name = "file"

    def __init__(
        self,
        path: str | Path,
        *,
        max_bytes: int | None = None,
        backups: int = 1,
    ) -> None:
        require(
            max_bytes is None or max_bytes > 0, "rotation max_bytes must be > 0"
        )
        require(backups >= 1, "rotation needs at least one backup slot")
        self.path = Path(path)
        self.max_bytes = max_bytes
        self.backups = int(backups)
        self.rotations = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle: IO[str] | None = self.path.open("w", encoding="utf-8")
        self._written = 0
        self._kind_counts: dict[str, int] = {}
        self._drops: dict[str, int] = {}

    def _backup_path(self, index: int) -> Path:
        return self.path.with_name(f"{self.path.name}.{index}")

    def _rotate(self) -> None:
        assert self._handle is not None
        self._handle.close()
        doomed = self._backup_path(self.backups)
        if doomed.exists():
            doomed.unlink()
        for index in range(self.backups - 1, 0, -1):
            source = self._backup_path(index)
            if source.exists():
                source.replace(self._backup_path(index + 1))
        self.path.replace(self._backup_path(1))
        # Rotation accounting is against the live file: everything that
        # just left it is a drop, whether or not a backup retains it.
        for kind, count in self._kind_counts.items():
            self._drops[kind] = self._drops.get(kind, 0) + count
        self._kind_counts = {}
        self._written = 0
        self.rotations += 1
        self._handle = self.path.open("w", encoding="utf-8")

    def handle(self, event: PipelineEvent) -> None:
        if self._handle is None:
            return
        line = event.to_json() + "\n"
        if (
            self.max_bytes is not None
            and self._written
            and self._written + len(line) > self.max_bytes
        ):
            self._rotate()
        self._handle.write(line)
        self._handle.flush()
        self._written += len(line)
        self._kind_counts[event.kind] = self._kind_counts.get(event.kind, 0) + 1

    def drops(self) -> dict[str, int]:
        """Events rotated out of the live file, counted per kind."""
        return {kind: self._drops[kind] for kind in sorted(self._drops)}

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class QueueTransport:
    """Puts each event's dict form on a (multiprocessing) queue.

    Any object with a ``put`` method works; in production it is a
    ``multiprocessing`` queue created by the process-pool executor, so
    worker-side events cross the process boundary as soon as they are
    emitted — a worker crash cannot lose what was already put.
    """

    name = "queue"

    def __init__(self, queue) -> None:
        self.queue = queue

    def handle(self, event: PipelineEvent) -> None:
        self.queue.put(event.as_dict())

    def close(self) -> None:
        pass


class EventBus:
    """Assigns sequence numbers and timestamps; fans out to transports.

    Emission is thread-safe (one lock around sequencing + dispatch), so
    thread-pool workers may emit directly on the coordinator's bus.
    ``t`` is seconds since the bus was created — a monotonic offset,
    never wall-clock, so stored logs replay deterministically.
    """

    recording = True

    def __init__(
        self,
        transports: Iterable = (),
        *,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.transports = list(transports)
        self._clock = clock
        self._epoch = clock()
        self._seq = 0
        self._counts: dict[str, int] = {}
        self._last_t: float | None = None
        self._gaps = QuantileSketch()
        self._lock = threading.Lock()

    def emit(self, kind: str, **fields: object) -> PipelineEvent:
        """Sequence and deliver one event to every transport."""
        require(kind in _KNOWN_KINDS, f"unknown event kind {kind!r}")
        with self._lock:
            event = PipelineEvent(
                seq=self._seq, t=self._clock() - self._epoch, kind=kind, fields=fields
            )
            self._seq += 1
            self._counts[kind] = self._counts.get(kind, 0) + 1
            if self._last_t is not None:
                self._gaps.observe(max(0.0, event.t - self._last_t))
            self._last_t = event.t
            for transport in self.transports:
                transport.handle(event)
        return event

    def forward(self, payload: Mapping) -> PipelineEvent:
        """Re-emit an event received from a worker process.

        The event is re-sequenced onto this bus (worker-local sequence
        numbers are meaningless after the merge); kind and fields are
        preserved verbatim.
        """
        fields = payload.get("fields", {})
        return self.emit(str(payload["kind"]), **dict(fields))

    def summary(self) -> dict[str, int]:
        """Events emitted so far, counted per kind (key-sorted)."""
        with self._lock:
            return {kind: self._counts[kind] for kind in sorted(self._counts)}

    def interarrival(self) -> dict:
        """Exported sketch of gaps between consecutive emits (seconds)."""
        with self._lock:
            return self._gaps.as_dict()

    def drop_counts(self) -> dict[str, dict[str, int]]:
        """Per-transport drop accounting: ``{transport: {kind: n}}``.

        Only transports exposing a ``drops()`` method (the bounded
        ones) contribute; transports of the same ``name`` aggregate.
        """
        merged: dict[str, dict[str, int]] = {}
        for transport in self.transports:
            drops = getattr(transport, "drops", None)
            if drops is None:
                continue
            counts = drops()
            if not counts:
                continue
            bucket = merged.setdefault(getattr(transport, "name", "transport"), {})
            for kind, count in counts.items():
                bucket[kind] = bucket.get(kind, 0) + count
        return {
            name: {kind: kinds[kind] for kind in sorted(kinds)}
            for name, kinds in sorted(merged.items())
        }

    def flush_drops(self) -> dict[str, dict[str, int]]:
        """Emit one ``transport.drop`` accounting event per transport
        that dropped anything; returns the counts it announced.

        Call at run teardown, *before* reading :meth:`summary` for the
        manifest, so the accounting itself rides the stream.  The drop
        events may themselves evict ring entries — :meth:`drop_counts`
        stays authoritative; the emitted fields are the pre-flush view.
        """
        announced = self.drop_counts()
        for name, kinds in announced.items():
            self.emit(
                "transport.drop",
                transport=name,
                dropped=sum(kinds.values()),
                kinds=dict(kinds),
            )
        return announced

    def close(self) -> None:
        """Close every transport (flushes and releases file sinks)."""
        for transport in self.transports:
            transport.close()


class NullEventBus:
    """The disabled bus: emitting is free and delivers nowhere."""

    recording = False

    def emit(self, kind: str, **fields: object) -> None:
        return None

    def forward(self, payload: Mapping) -> None:
        return None

    def summary(self) -> dict[str, int]:
        return {}

    def interarrival(self) -> dict:
        return {}

    def drop_counts(self) -> dict[str, dict[str, int]]:
        return {}

    def flush_drops(self) -> dict[str, dict[str, int]]:
        return {}

    def close(self) -> None:
        pass


#: The process-wide default: the event stream off.
NULL_BUS = NullEventBus()

_active: EventBus | NullEventBus = NULL_BUS


def active_bus() -> EventBus | NullEventBus:
    """The bus instrumentation sites currently emit on."""
    return _active


def activate_bus(bus: EventBus | NullEventBus) -> EventBus | NullEventBus:
    """Install ``bus`` as the active one; returns the previous."""
    global _active
    previous = _active
    _active = bus
    return previous


@contextmanager
def use_bus(bus: EventBus | NullEventBus) -> Iterator[EventBus | NullEventBus]:
    """Activate ``bus`` for the duration of the block."""
    previous = activate_bus(bus)
    try:
        yield bus
    finally:
        activate_bus(previous)


def read_events(path: str | Path) -> list[PipelineEvent]:
    """Parse a stored JSON-lines event log (raises on malformed lines)."""
    return list(iter_events(path))


def iter_events(
    path: str | Path,
    *,
    follow: bool = False,
    poll_seconds: float = 0.2,
    stop: Callable[[], bool] | None = None,
) -> Iterator[PipelineEvent]:
    """Yield events from a log file, optionally following appends.

    Without ``follow`` this is a deterministic replay: the yielded
    events are a pure function of the file's contents.  With ``follow``
    the iterator polls for new complete lines until ``stop()`` returns
    true (or forever — the CLI wires ``stop`` to KeyboardInterrupt).
    Partial trailing lines (a writer mid-append) are never yielded.

    A followed file that is truncated or rotated out from under the
    reader (inode change, or size regressing below the read position —
    what a size-rotating :class:`FileTransport` does) is reopened from
    the start instead of silently stalling at a stale offset; any
    half-buffered line from the old incarnation is discarded.
    """
    path = Path(path)
    position = 0
    inode: int | None = None
    buffer = ""
    while True:
        if path.is_file():
            try:
                stat = path.stat()
            except OSError:
                stat = None
            if stat is not None:
                if inode is not None and (
                    stat.st_ino != inode or stat.st_size < position
                ):
                    position = 0
                    buffer = ""
                inode = stat.st_ino
            try:
                with path.open("r", encoding="utf-8") as handle:
                    handle.seek(position)
                    buffer += handle.read()
                    position = handle.tell()
            except OSError:
                # Rotated away between stat and open; retry next poll.
                pass
            while "\n" in buffer:
                line, buffer = buffer.split("\n", 1)
                if line.strip():
                    yield PipelineEvent.from_dict(json.loads(line))
        if not follow or (stop is not None and stop()):
            return
        time.sleep(poll_seconds)


def parse_filters(specs: Sequence[str]) -> dict[str, str]:
    """``KEY=VALUE`` filter specs -> mapping (``--filter stage=epm``)."""
    filters: dict[str, str] = {}
    for spec in specs:
        require("=" in spec, f"filter {spec!r} is not KEY=VALUE")
        key, _eq, value = spec.partition("=")
        filters[key] = value
    return filters


def matches(event: PipelineEvent, filters: Mapping[str, str]) -> bool:
    """Whether an event satisfies every filter (AND semantics).

    ``kind`` matches the event kind (prefix match on a trailing ``*``,
    so ``kind=stage.*`` selects both start and finish); any other key
    compares against the string form of that event field.
    """
    for key, expected in filters.items():
        if key == "kind":
            if expected.endswith("*"):
                if not event.kind.startswith(expected[:-1]):
                    return False
            elif event.kind != expected:
                return False
        elif str(event.fields.get(key)) != expected:
            return False
    return True


class ProgressRenderer:
    """A transport turning the stream into live per-stage progress lines.

    Tracks the open stage stack, per-stage chunk/item completion
    against the planned totals (``chunk.plan``), and estimates the time
    remaining as *remaining chunks x median chunk latency* — the median
    comes from a :class:`~repro.obs.sketch.QuantileSketch` of observed
    chunk seconds (within its relative error at any chunk length), so
    the ETA firms up as the run progresses.  Off by
    default; the CLI enables it with ``--progress``.
    """

    def __init__(self, stream: IO[str]) -> None:
        self.stream = stream
        self._stack: list[str] = []
        self._chunk_seconds = QuantileSketch()
        self._planned_chunks = 0
        self._planned_items = 0
        self._done_chunks = 0
        self._done_items = 0

    @property
    def _stage(self) -> str:
        return self._stack[-1] if self._stack else "-"

    def _line(self, text: str) -> None:
        self.stream.write(f"[progress] {text}\n")
        self.stream.flush()

    def handle(self, event: PipelineEvent) -> None:
        kind, fields = event.kind, event.fields
        if kind == "run.start":
            self._line(f"run started {self._render_fields(fields)}")
        elif kind == "stage.start":
            self._stack.append(str(fields.get("stage", "?")))
        elif kind == "chunk.plan":
            self._planned_chunks = int(fields.get("chunks", 0))
            self._planned_items = int(fields.get("items", 0))
            self._done_chunks = 0
            self._done_items = 0
        elif kind == "chunk.finish":
            self._done_chunks += 1
            self._done_items += int(fields.get("items", 0))
            self._chunk_seconds.observe(float(fields.get("seconds", 0.0)))
            self._line(
                f"{self._stage}: chunks {self._done_chunks}/{self._planned_chunks}"
                f" items {self._done_items}/{self._planned_items}"
                f" eta {self._eta()}"
            )
        elif kind == "stage.finish":
            stage = str(fields.get("stage", "?"))
            if self._stack and self._stack[-1] == stage:
                self._stack.pop()
            self._line(f"{stage} finished in {float(fields.get('seconds', 0.0)):.3f}s")
        elif kind == "run.finish":
            self._line(f"run finished {self._render_fields(fields)}")

    def _eta(self) -> str:
        median = self._chunk_seconds.quantile(0.5)
        remaining = max(0, self._planned_chunks - self._done_chunks)
        if median is None:
            return "?"
        return f"{remaining * median:.1f}s"

    @staticmethod
    def _render_fields(fields: Mapping[str, object]) -> str:
        return " ".join(f"{key}={fields[key]}" for key in sorted(fields))

    def close(self) -> None:
        pass
