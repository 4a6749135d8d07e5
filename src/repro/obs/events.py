"""The live pipeline event stream: structured, sequenced, transportable.

While metrics and manifests describe a run *after the fact*, the event
stream is what makes the pipeline observable *in flight*: every stage
open/close, cache interaction, cluster-count
milestone and golden-deviation alert becomes one
:class:`PipelineEvent` — schema-versioned, monotonically sequenced by
the emitting :class:`EventBus`, and serialised as one JSON object per
line so ``repro obs dashboard PATH --follow`` (or plain ``tail -f``)
can watch a sink file while the run is still going.

Transports decouple emission from delivery:

* :class:`MemoryTransport` — an in-process list (tests, the CLI);
* :class:`FileTransport`  — a JSON-lines sink, flushed per event so a
  crash loses nothing that was emitted;
* :class:`ProgressRenderer` — a terminal transport printing one line
  per run start, stage finish and run finish.

Like the metrics registry and the tracer, the bus is ambient
(:func:`active_bus` / :func:`use_bus`) and defaults to a shared no-op,
so an un-orchestrated ``emit`` costs one attribute lookup;
:func:`open_bus` builds the bus a session records on.  Event
emission is execution-only telemetry: it never contributes to scenario
fingerprints or artifact digests, and pipeline outputs stay
bit-identical with the stream on.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Mapping

from repro.obs.sketch import QuantileSketch
from repro.util.validation import ValidationError, require

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
    "cache.hit",
    "cache.miss",
    "cache.store",
    "cache.evict",
    "cache.stage_hit",
    "cache.stage_miss",
    "cache.stage_store",
    "cluster.milestone",
    "golden.deviation",
    "window.rollup",
    "health.finding",
    "health.summary",
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
        """Rebuild an event from its :meth:`as_dict` form.

        A payload that is not an event record raises
        :class:`~repro.util.validation.ValidationError`.
        """
        require(isinstance(payload, Mapping), "event is not a JSON object")
        require(
            payload.get("schema") == EVENT_SCHEMA,
            f"unsupported event schema {payload.get('schema')!r}",
        )
        for key in ("seq", "kind"):
            require(key in payload, f"event has no {key!r}")
        try:
            return cls(
                seq=int(payload["seq"]),
                t=float(payload.get("t", 0.0)),
                kind=str(payload["kind"]),
                fields=dict(payload.get("fields", {})),
            )
        except (TypeError, ValueError) as error:
            raise ValidationError(f"malformed event: {error}") from None


class MemoryTransport:
    """Keeps every delivered event in an in-process list."""

    def __init__(self) -> None:
        self.events: list[PipelineEvent] = []

    def handle(self, event: PipelineEvent) -> None:
        self.events.append(event)

    def close(self) -> None:
        pass


class FileTransport:
    """Appends one JSON line per event, flushed eagerly.

    The per-event flush is what makes the sink tailable during the run
    and loss-free on a crash; it costs one small write syscall per
    event, which the event-overhead benchmark keeps honest.  Opening
    the sink truncates ``path``, so a second run to the same path
    starts a fresh log.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle: IO[str] | None = self.path.open("w", encoding="utf-8")

    def handle(self, event: PipelineEvent) -> None:
        if self._handle is None:
            return
        self._handle.write(event.to_json() + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class EventBus:
    """Assigns sequence numbers and timestamps; fans out to transports.

    Emission is thread-safe (one lock around sequencing + dispatch).
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

    def summary(self) -> dict[str, int]:
        """Events emitted so far, counted per kind (key-sorted)."""
        with self._lock:
            return {kind: self._counts[kind] for kind in sorted(self._counts)}

    def interarrival(self) -> dict:
        """Exported sketch of gaps between consecutive emits (seconds)."""
        with self._lock:
            return self._gaps.as_dict()

    def close(self) -> None:
        """Close every transport (flushes and releases file sinks)."""
        for transport in self.transports:
            transport.close()


class NullEventBus:
    """The disabled bus: emitting is free and delivers nowhere."""

    recording = False

    def emit(self, kind: str, **fields: object) -> None:
        return None

    def summary(self) -> dict[str, int]:
        return {}

    def interarrival(self) -> dict:
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


def open_bus(
    events: str | Path | None = None, *, progress: bool = False
) -> EventBus | NullEventBus:
    """The bus one session records on.

    A :class:`FileTransport` at ``events`` and/or a
    :class:`ProgressRenderer` on stderr; the shared no-op bus when
    neither is asked for.  The caller closes the bus when done.
    """
    transports: list = []
    if events is not None:
        transports.append(FileTransport(events))
    if progress:
        transports.append(ProgressRenderer(sys.stderr))
    return EventBus(transports) if transports else NULL_BUS


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
    Partial trailing lines (a writer mid-append) are never yielded; a
    complete line that is not an event raises
    :class:`~repro.util.validation.ValidationError` naming the file and
    line number.

    A followed file that is truncated under the reader (its size
    regresses below the read position — a second run writing to the
    same ``--events`` path) is re-read from the start instead of
    silently stalling at a stale offset; any half-buffered line from
    the old contents is discarded.
    """
    path = Path(path)
    position = 0
    number = 0
    buffer = ""
    while True:
        try:
            if path.stat().st_size < position:
                position = number = 0
                buffer = ""
            with path.open("r", encoding="utf-8") as handle:
                handle.seek(position)
                buffer += handle.read()
                position = handle.tell()
        except OSError:
            pass  # not there (yet); retry next poll
        while "\n" in buffer:
            line, buffer = buffer.split("\n", 1)
            number += 1
            if not line.strip():
                continue
            try:
                event = PipelineEvent.from_dict(json.loads(line))
            except ValueError as error:  # JSONDecodeError or ValidationError
                raise ValidationError(f"{path} line {number}: {error}") from None
            yield event
        if not follow or (stop is not None and stop()):
            return
        time.sleep(poll_seconds)


class ProgressRenderer:
    """A transport turning the stream into live progress lines.

    One line when the run starts, one per finished stage (its wall
    seconds) and one when the run finishes.  Off by default; the CLI
    enables it with ``--progress``.
    """

    def __init__(self, stream: IO[str]) -> None:
        self.stream = stream

    def _line(self, text: str) -> None:
        self.stream.write(f"[progress] {text}\n")
        self.stream.flush()

    def handle(self, event: PipelineEvent) -> None:
        kind, fields = event.kind, event.fields
        if kind == "run.start":
            self._line(f"run started {self._render_fields(fields)}")
        elif kind == "stage.finish":
            stage = str(fields.get("stage", "?"))
            self._line(f"{stage} finished in {float(fields.get('seconds', 0.0)):.3f}s")
        elif kind == "run.finish":
            self._line(f"run finished {self._render_fields(fields)}")

    @staticmethod
    def _render_fields(fields: Mapping[str, object]) -> str:
        return " ".join(f"{key}={fields[key]}" for key in sorted(fields))

    def close(self) -> None:
        pass
