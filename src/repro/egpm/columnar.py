"""Memory-resident columnar view of an :class:`SGNetDataset`.

The row-wise store keeps one :class:`~repro.egpm.events.AttackEvent`
dataclass per attack; analysis passes that touch every event (invariant
discovery, pattern support counting) then pay a Python attribute-access
per feature per event.  The columnar view transposes that layout once:
parallel numpy arrays hold event ids, timestamps and source/sensor
codes, and each EPM dimension gets a dense ``(n_rows, n_features)``
matrix of *value codes* — indexes into per-feature interned
vocabularies.  Batch kernels (``np.bincount``/``np.unique`` aggregation
in :mod:`repro.core.invariants`) then run over integer arrays, while
the vocabularies decode codes back to the exact original feature values
so results stay bit-identical to the row-wise path.

The view is built once, lazily, over a finished dataset
(:meth:`SGNetDataset.to_columnar`), by appending its events to a
:class:`ColumnarBuilder`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

import numpy as np

from repro.core.features import Dimension, FeatureSet, default_feature_sets
from repro.egpm.events import AttackEvent
from repro.util.validation import ValidationError

#: One observed instance, as the row-wise analysis layer consumes it:
#: (feature value tuple, attacker address, honeypot address).
Observation = tuple[tuple[Hashable, ...], int, int]


class Vocabulary:
    """Insertion-ordered interning of hashable values to dense codes."""

    __slots__ = ("_codes", "_values")

    def __init__(self) -> None:
        self._codes: dict[Hashable, int] = {}
        self._values: list[Hashable] = []

    def intern(self, value: Hashable) -> int:
        """The code of ``value``, assigning the next code on first sight."""
        code = self._codes.get(value)
        if code is None:
            code = len(self._values)
            self._codes[value] = code
            self._values.append(value)
        return code

    def decode(self, code: int) -> Hashable:
        """The original value behind ``code``."""
        return self._values[code]

    def values(self) -> list[Hashable]:
        """All interned values, in code order (do not mutate)."""
        return self._values

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, value: Hashable) -> bool:
        return value in self._codes


@dataclass
class DimensionColumns:
    """One dimension's applicable events, transposed into code columns.

    ``codes[r, f]`` is the interned code of feature ``f``'s value in
    the ``r``-th applicable event (``vocabularies[f]`` decodes it);
    ``event_ids``, ``sources``/``sensors`` (raw addresses) and
    ``source_codes``/``sensor_codes`` (store-wide interned codes) are
    aligned row for row.
    """

    dimension: Dimension
    feature_names: list[str]
    event_ids: np.ndarray
    sources: np.ndarray
    sensors: np.ndarray
    source_codes: np.ndarray
    sensor_codes: np.ndarray
    codes: np.ndarray
    vocabularies: list[Vocabulary]

    @property
    def n_rows(self) -> int:
        """Number of applicable events."""
        return len(self.event_ids)

    @property
    def n_features(self) -> int:
        """Number of features in this dimension."""
        return len(self.feature_names)

    def decode_row(self, row: int) -> tuple[Hashable, ...]:
        """The original feature-value tuple of one row."""
        return tuple(
            vocab.decode(int(code))
            for vocab, code in zip(self.vocabularies, self.codes[row])
        )

    def value_tuples(self) -> list[tuple[Hashable, ...]]:
        """Every row decoded back to its exact row-wise extraction tuple.

        Each distinct code row is decoded once, and every row carrying
        it gets that one tuple, so a pickle of the instances stores
        each distinct tuple once.
        """
        if self.n_rows == 0:
            return []
        # One int64 key per code row, the codes as mixed-radix digits;
        # before a digit could overflow the key, it is renumbered densely.
        key = np.zeros(self.n_rows, dtype=np.int64)
        span = 1
        for f, vocab in enumerate(self.vocabularies):
            if span * len(vocab) >= 1 << 62:
                distinct, key = np.unique(key, return_inverse=True)
                span = len(distinct)
            key = key * len(vocab) + self.codes[:, f]
            span *= len(vocab)
        _, first, key = np.unique(key, return_index=True, return_inverse=True)
        rows = self.codes[first]
        columns = []
        for f, vocab in enumerate(self.vocabularies):
            values = vocab.values()
            columns.append([values[code] for code in rows[:, f].tolist()])
        decoded = list(zip(*columns))
        return [decoded[index] for index in key.tolist()]

    def observations(self) -> list[Observation]:
        """Rows in the ``(values, source, sensor)`` form the scalar
        invariant-discovery path consumes — the round-trip contract."""
        return list(
            zip(self.value_tuples(), self.sources.tolist(), self.sensors.tolist())
        )


@dataclass
class ColumnarEvents:
    """The full columnar store: global arrays + per-dimension columns."""

    event_ids: np.ndarray
    timestamps: np.ndarray
    sources: np.ndarray
    sensors: np.ndarray
    source_codes: np.ndarray
    sensor_codes: np.ndarray
    source_vocab: Vocabulary
    sensor_vocab: Vocabulary
    dimensions: dict[Dimension, DimensionColumns]

    @property
    def n_events(self) -> int:
        """Number of events in the store."""
        return len(self.event_ids)

    def summary(self) -> dict[str, int]:
        """Headline counters, mirroring ``SGNetDataset.summary`` fields
        that the columnar view can answer."""
        return {
            "events": self.n_events,
            "sources": len(self.source_vocab),
            "sensors": len(self.sensor_vocab),
            **{
                f"{dim.value}_rows": cols.n_rows
                for dim, cols in self.dimensions.items()
            },
        }


class _DimensionAccumulator:
    """Per-dimension append buffers behind :class:`ColumnarBuilder`."""

    __slots__ = (
        "feature_set",
        "event_ids",
        "sources",
        "sensors",
        "source_codes",
        "sensor_codes",
        "rows",
        "vocabularies",
        "_rows_by_observable",
    )

    def __init__(self, feature_set: FeatureSet) -> None:
        self.feature_set = feature_set
        self.event_ids: list[int] = []
        self.sources: list[int] = []
        self.sensors: list[int] = []
        self.source_codes: list[int] = []
        self.sensor_codes: list[int] = []
        self.rows: list[list[int]] = []
        self.vocabularies = [Vocabulary() for _ in feature_set.names]
        #: ``id(observable) -> (observable, code row)``.  Holding the
        #: observable keeps its ``id`` from being reused by another object.
        self._rows_by_observable: dict[int, tuple[object, list[int]]] = {}

    def add(self, event: AttackEvent, source_code: int, sensor_code: int) -> None:
        self.event_ids.append(event.event_id)
        self.sources.append(int(event.source))
        self.sensors.append(int(event.sensor))
        self.source_codes.append(source_code)
        self.sensor_codes.append(sensor_code)
        self.rows.append(self._code_row(event))

    def _code_row(self, event: AttackEvent) -> list[int]:
        """The event's interned codes; one extraction per shared
        observable object when the feature set names one."""
        observable = self.feature_set.observable
        if observable is None:
            return self._intern(event)
        shared = observable(event)
        entry = self._rows_by_observable.get(id(shared))
        if entry is None:
            entry = self._rows_by_observable[id(shared)] = (shared, self._intern(event))
        return entry[1]

    def _intern(self, event: AttackEvent) -> list[int]:
        values = self.feature_set.extract(event)
        return [vocab.intern(value) for vocab, value in zip(self.vocabularies, values)]

    def build(self) -> DimensionColumns:
        n_features = len(self.feature_set.names)
        codes = (
            np.array(self.rows, dtype=np.int64)
            if self.rows
            else np.empty((0, n_features), dtype=np.int64)
        )
        return DimensionColumns(
            dimension=self.feature_set.dimension,
            feature_names=list(self.feature_set.names),
            event_ids=np.array(self.event_ids, dtype=np.int64),
            sources=np.array(self.sources, dtype=np.int64),
            sensors=np.array(self.sensors, dtype=np.int64),
            source_codes=np.array(self.source_codes, dtype=np.int64),
            sensor_codes=np.array(self.sensor_codes, dtype=np.int64),
            codes=codes,
            vocabularies=self.vocabularies,
        )


class ColumnarBuilder:
    """Incremental builder: append events in order, then :meth:`build`
    the immutable store."""

    def __init__(
        self, feature_sets: dict[Dimension, FeatureSet] | None = None
    ) -> None:
        self.feature_sets = feature_sets or default_feature_sets()
        self._event_ids: list[int] = []
        self._timestamps: list[int] = []
        self._sources: list[int] = []
        self._sensors: list[int] = []
        self._source_codes: list[int] = []
        self._sensor_codes: list[int] = []
        self._source_vocab = Vocabulary()
        self._sensor_vocab = Vocabulary()
        self._dimensions = {
            dimension: _DimensionAccumulator(feature_set)
            for dimension, feature_set in self.feature_sets.items()
        }

    def add_event(self, event: AttackEvent) -> None:
        """Append one event's columns (event ids must arrive in order)."""
        if self._event_ids and event.event_id <= self._event_ids[-1]:
            raise ValidationError(
                f"event_id {event.event_id} out of order "
                f"(last was {self._event_ids[-1]})"
            )
        source_code = self._source_vocab.intern(int(event.source))
        sensor_code = self._sensor_vocab.intern(int(event.sensor))
        self._event_ids.append(event.event_id)
        self._timestamps.append(event.timestamp)
        self._sources.append(int(event.source))
        self._sensors.append(int(event.sensor))
        self._source_codes.append(source_code)
        self._sensor_codes.append(sensor_code)
        for accumulator in self._dimensions.values():
            if accumulator.feature_set.applies_to(event):
                accumulator.add(event, source_code, sensor_code)

    def add_events(self, events: Iterable[AttackEvent]) -> None:
        """Append a batch of events (one shard's worth, typically)."""
        for event in events:
            self.add_event(event)

    @property
    def n_events(self) -> int:
        """Events appended so far."""
        return len(self._event_ids)

    def build(self) -> ColumnarEvents:
        """Freeze the buffers into numpy-backed :class:`ColumnarEvents`."""
        return ColumnarEvents(
            event_ids=np.array(self._event_ids, dtype=np.int64),
            timestamps=np.array(self._timestamps, dtype=np.int64),
            sources=np.array(self._sources, dtype=np.int64),
            sensors=np.array(self._sensors, dtype=np.int64),
            source_codes=np.array(self._source_codes, dtype=np.int64),
            sensor_codes=np.array(self._sensor_codes, dtype=np.int64),
            source_vocab=self._source_vocab,
            sensor_vocab=self._sensor_vocab,
            dimensions={
                dimension: accumulator.build()
                for dimension, accumulator in self._dimensions.items()
            },
        )


def events_to_columnar(
    events: Sequence[AttackEvent],
    feature_sets: dict[Dimension, FeatureSet] | None = None,
) -> ColumnarEvents:
    """One-shot columnar conversion of an ordered event sequence."""
    builder = ColumnarBuilder(feature_sets)
    builder.add_events(events)
    return builder.build()
