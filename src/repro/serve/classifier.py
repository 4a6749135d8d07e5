"""The serving hot path: classify new events against a loaded model.

:class:`ServingClassifier` wraps a :class:`~repro.serve.model.ModelArtifact`
with one compiled :class:`~repro.core.pattern_index.PatternIndex` per
E/P/M dimension and one *answer table* per dimension: a frozen
:class:`Classification` for every pattern, built once at compile time
and shared by every call that lands on that pattern.  Single events go
through the index's branch-and-bound lookup (with the own-mask O(1)
shortcut in front, exactly like training-time classification); batches
code each distinct value tuple once and push that matrix through the
masked-grouping batch kernel.  Both paths return the same pattern the linear scan would.

Instrumentation rides the ambient observability seams — the
``classify.requests`` / ``classify.batch_rows`` counters and the
``classify.latency`` quantile sketch on the active metrics registry,
``classify.start`` / ``classify.finish`` events on the active bus — so
serving runs are validated by the same ``repro obs validate``
catalogue as scenario runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from repro.core.features import Dimension, FeatureSet, default_feature_sets
from repro.core.pattern_index import PatternIndex
from repro.core.patterns import Pattern, format_pattern, mask_instance
from repro.egpm.columnar import Vocabulary
from repro.egpm.events import AttackEvent
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.serve.model import ModelArtifact, encode_pattern


@dataclass(frozen=True)
class Classification:
    """One event's assignment in one dimension."""

    dimension: Dimension
    pattern: Pattern
    cluster: int | None
    rendered: str

    def as_dict(self) -> dict:
        """JSONL-friendly form (tagged pattern encoding)."""
        return {
            "dimension": self.dimension.value,
            "pattern": encode_pattern(self.pattern),
            "cluster": self.cluster,
            "rendered": self.rendered,
        }


class ServingClassifier:
    """A model compiled and ready to classify events."""

    def __init__(self, model: ModelArtifact) -> None:
        self.model = model
        self.feature_sets = default_feature_sets()
        self._indexes: dict[Dimension, PatternIndex] = {}
        #: Per dimension, the answer of every pattern in rank order ...
        self._answers: dict[Dimension, list[Classification]] = {}
        #: ... and the same objects keyed by pattern.
        self._answer_of: dict[Dimension, dict[Pattern, Classification]] = {}
        for dimension in Dimension:
            index = PatternIndex.compile(
                model.pattern_set(dimension), model.invariants(dimension)
            )
            names = model.feature_names(dimension)
            answers = [
                Classification(
                    dimension=dimension,
                    pattern=pattern,
                    cluster=model.cluster_of_pattern(dimension, pattern),
                    rendered=format_pattern(pattern, names),
                )
                for pattern in index.patterns
            ]
            self._indexes[dimension] = index
            self._answers[dimension] = answers
            self._answer_of[dimension] = {
                answer.pattern: answer for answer in answers
            }

    def index(self, dimension: Dimension) -> PatternIndex:
        """The compiled index of one dimension."""
        return self._indexes[dimension]

    def classify_values(
        self, dimension: Dimension, values: Sequence[Hashable]
    ) -> Classification:
        """Classify one raw feature tuple in one dimension."""
        registry = obs_metrics.active()
        started = time.perf_counter()
        answer_of = self._answer_of[dimension]
        answer = answer_of.get(mask_instance(values, self.model.invariants(dimension)))
        if answer is None:
            answer = answer_of[self._indexes[dimension].classify(values)]
        registry.counter("classify.requests", dimension=dimension.value).inc()
        registry.sketch("classify.latency").observe(time.perf_counter() - started)
        return answer

    def classify_event(self, event: AttackEvent) -> dict[str, Classification]:
        """Classify one event in every dimension that applies to it."""
        results: dict[str, Classification] = {}
        for dimension, feature_set in self.feature_sets.items():
            if not feature_set.applies_to(event):
                continue
            values = feature_set.extract(event)
            results[dimension.value] = self.classify_values(dimension, values)
        return results

    def classify_events(
        self, events: Sequence[AttackEvent]
    ) -> list[dict[str, Classification]]:
        """Batch path: distinct rows through the batch kernel.

        Returns one ``{dimension: Classification}`` map per input
        event, in input order — element-for-element identical to
        calling :meth:`classify_event` on each event.
        """
        registry = obs_metrics.active()
        bus = obs_events.active_bus()
        started = time.perf_counter()
        bus.emit(
            "classify.start",
            model=self.model.model_id,
            events=len(events),
            mode="batch",
        )
        results: list[dict[str, Classification]] = [{} for _ in events]
        for dimension, feature_set in self.feature_sets.items():
            positions, slots, distinct = _distinct_rows(feature_set, events)
            if not positions:
                continue
            vocabularies = [Vocabulary() for _ in feature_set.names]
            codes = np.array(
                [
                    [vocab.intern(value) for vocab, value in zip(vocabularies, values)]
                    for values in distinct
                ],
                dtype=np.int64,
            )
            ranks = self._indexes[dimension].batch_classify(codes, vocabularies)
            registry.counter(
                "classify.batch_rows", dimension=dimension.value
            ).inc(len(positions))
            registry.counter(
                "classify.requests", dimension=dimension.value
            ).inc(len(positions))
            answers = self._answers[dimension]
            slot_answers = [answers[rank] for rank in ranks.tolist()]
            key = dimension.value
            for position, slot in zip(positions, slots):
                results[position][key] = slot_answers[slot]
        seconds = time.perf_counter() - started
        registry.sketch("classify.latency").observe(seconds)
        bus.emit(
            "classify.finish",
            model=self.model.model_id,
            events=len(events),
            seconds=round(seconds, 6),
        )
        return results


def _distinct_rows(
    feature_set: FeatureSet, events: Sequence[AttackEvent]
) -> tuple[list[int], list[int], list[tuple[Hashable, ...]]]:
    """One dimension's batch rows, deduplicated.

    Returns the positions of the events the dimension applies to, each
    one's slot in the distinct value tuples, and those tuples in first
    seen order.
    """
    positions: list[int] = []
    slots: list[int] = []
    slot_of_values: dict[tuple[Hashable, ...], int] = {}
    for position, event in enumerate(events):
        if feature_set.applies_to(event):
            positions.append(position)
            slots.append(
                slot_of_values.setdefault(
                    feature_set.extract(event), len(slot_of_values)
                )
            )
    return positions, slots, list(slot_of_values)
