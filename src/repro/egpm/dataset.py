"""The SGNET dataset: event store, sample index and persistence.

The store keeps every enriched :class:`AttackEvent` plus one
:class:`SampleRecord` per distinct binary (keyed by MD5), and maintains
the secondary indexes the analysis layer queries constantly (events per
source, per sensor, per sample).  Events persist as JSON lines so a
generated dataset can be saved and re-analysed without re-running the
honeypot simulation.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro.egpm.events import (
    AttackEvent,
    SampleRecord,
    event_from_dict,
    event_to_dict,
)
from repro.util.validation import ValidationError


class SGNetDataset:
    """In-memory enriched event store with MD5-keyed sample index."""

    def __init__(self) -> None:
        self._events: list[AttackEvent] = []
        self._samples: dict[str, SampleRecord] = {}
        self._by_source: dict[int, list[int]] = defaultdict(list)
        self._by_sensor: dict[int, list[int]] = defaultdict(list)
        self._by_md5: dict[str, list[int]] = defaultdict(list)
        self._columnar = None

    # -- ingestion ---------------------------------------------------------

    def add_event(self, event: AttackEvent, *, behavior_handle=None) -> None:
        """Add one event, updating the sample index.

        ``behavior_handle`` is attached to the sample record on first
        sighting (it stands in for the binary's executable content).
        """
        index = len(self._events)
        if event.event_id != index:
            raise ValidationError(f"event_id {event.event_id} out of order (expected {index})")
        self._columnar = None
        self._events.append(event)
        self._by_source[int(event.source)].append(index)
        self._by_sensor[int(event.sensor)].append(index)
        if event.malware is not None:
            md5 = event.malware.md5
            self._by_md5[md5].append(index)
            record = self._samples.get(md5)
            if record is None:
                self._samples[md5] = SampleRecord(
                    md5=md5,
                    observable=event.malware,
                    first_seen=event.timestamp,
                    last_seen=event.timestamp,
                    behavior_handle=behavior_handle,
                    ground_truth=event.ground_truth,
                )
            else:
                record.record_event(event.timestamp)
                if record.behavior_handle is None and behavior_handle is not None:
                    record.behavior_handle = behavior_handle

    def next_event_id(self) -> int:
        """The event_id the next :meth:`add_event` call must carry."""
        return len(self._events)

    # -- access ------------------------------------------------------------

    @property
    def events(self) -> list[AttackEvent]:
        """All events in ingestion order (do not mutate)."""
        return self._events

    @property
    def samples(self) -> dict[str, SampleRecord]:
        """MD5 -> sample record (do not mutate the mapping itself)."""
        return self._samples

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[AttackEvent]:
        return iter(self._events)

    def events_for_sample(self, md5: str) -> list[AttackEvent]:
        """Events in which the binary ``md5`` was collected."""
        return [self._events[i] for i in self._by_md5.get(md5, ())]

    def events_from_source(self, source: int) -> list[AttackEvent]:
        """Events originated by attacker ``source``."""
        return [self._events[i] for i in self._by_source.get(int(source), ())]

    def events_on_sensor(self, sensor: int) -> list[AttackEvent]:
        """Events observed by honeypot IP ``sensor``."""
        return [self._events[i] for i in self._by_sensor.get(int(sensor), ())]

    def select(self, predicate: Callable[[AttackEvent], bool]) -> list[AttackEvent]:
        """Events satisfying ``predicate``."""
        return [e for e in self._events if predicate(e)]

    @property
    def n_sources(self) -> int:
        """Number of distinct attacking addresses."""
        return len(self._by_source)

    @property
    def n_sensors(self) -> int:
        """Number of distinct honeypot addresses hit."""
        return len(self._by_sensor)

    @property
    def n_samples(self) -> int:
        """Number of distinct collected binaries (by MD5)."""
        return len(self._samples)

    def to_columnar(self, feature_sets=None):
        """The columnar view of this dataset (see :mod:`repro.egpm.columnar`).

        With the default ``feature_sets=None`` the view is built once
        over the paper's Table 1 feature sets and cached; any later
        :meth:`add_event` invalidates the cache.  Passing explicit
        feature sets always rebuilds (custom sets may differ call to
        call, so they are never cached).
        """
        from repro.egpm.columnar import events_to_columnar

        if feature_sets is not None:
            return events_to_columnar(self._events, feature_sets)
        if self._columnar is None:
            self._columnar = events_to_columnar(self._events)
        return self._columnar

    def valid_samples(self) -> list[SampleRecord]:
        """Sample records whose binary is uncorrupted (executable)."""
        return [r for r in self._samples.values() if not r.observable.corrupted]

    def summary(self) -> dict[str, int]:
        """Headline counters for quick inspection."""
        return {
            "events": len(self._events),
            "sources": self.n_sources,
            "sensors": self.n_sensors,
            "samples": self.n_samples,
            "valid_samples": len(self.valid_samples()),
        }

    def __getstate__(self) -> dict:
        # The columnar view is a derived cache over numpy arrays; drop
        # it from pickles (stage cache entries, process-pool transfers)
        # and let it rebuild lazily on first use after load.
        state = self.__dict__.copy()
        state["_columnar"] = None
        return state

    # -- persistence ---------------------------------------------------------

    def save_jsonl(self, path: str | Path) -> int:
        """Write all events as JSON lines; returns the number written.

        Sample records are reconstructed on load, so only events are
        persisted.  Behaviour handles (the stand-in for binary content)
        are *not* serialized — like real binaries, they live outside the
        event log.
        """
        target = Path(path)
        with target.open("w", encoding="utf-8") as handle:
            for event in self._events:
                handle.write(json.dumps(event_to_dict(event)) + "\n")
        return len(self._events)

    @classmethod
    def load_jsonl(cls, path: str | Path) -> "SGNetDataset":
        """Rebuild a dataset from :meth:`save_jsonl` output."""
        dataset = cls()
        with Path(path).open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    dataset.add_event(event_from_dict(json.loads(line)))
        return dataset

    @classmethod
    def from_events(cls, events: Iterable[AttackEvent]) -> "SGNetDataset":
        """Build a dataset from an iterable of events (ids must be ordered)."""
        dataset = cls()
        for event in events:
            dataset.add_event(event)
        return dataset
