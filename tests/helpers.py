"""Builders and oracles shared by several test modules.

The program itself never needs these: they build test inputs (a dataset
from events, a query frame from bare manifests) or list what the program
only ever picks the first of (every pattern matching an instance).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Hashable, Iterable, Mapping, Sequence

from repro.core.patterns import Pattern, PatternSet, pattern_matches
from repro.egpm.dataset import SGNetDataset
from repro.egpm.events import AttackEvent, event_from_dict
from repro.obs.query import QueryFrame, _row_from_payload


def dataset_from_events(events: Iterable[AttackEvent]) -> SGNetDataset:
    """A dataset holding ``events`` (their ids must run 0, 1, 2, ...)."""
    dataset = SGNetDataset()
    for event in events:
        dataset.add_event(event)
    return dataset


def load_jsonl(path: str | Path) -> SGNetDataset:
    """Read back a dataset that ``SGNetDataset.save_jsonl`` wrote."""
    with Path(path).open("r", encoding="utf-8") as handle:
        return dataset_from_events(
            event_from_dict(json.loads(line)) for line in handle if line.strip()
        )


def frame_from_payloads(
    payloads: Sequence[Mapping], windows: Sequence[Mapping | None] | None = None
) -> QueryFrame:
    """A query frame over bare manifest payloads, with no run store behind it."""
    if windows is None:
        windows = [None] * len(payloads)
    return QueryFrame(
        [
            _row_from_payload(payload, windows=sidecar)
            for payload, sidecar in zip(payloads, windows, strict=True)
        ]
    )


def matching_patterns(patterns: PatternSet, values: Sequence[Hashable]) -> list[Pattern]:
    """Every pattern of ``patterns`` that matches ``values``, most specific first."""
    return [rp.pattern for rp in patterns._ranked if pattern_matches(rp.pattern, values)]
