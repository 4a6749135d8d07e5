"""Cluster bookkeeping for one EPM dimension.

:class:`DimensionClustering` packages the outcome of running phases 2-4
over one dimension of a dataset: the invariant statistics, the pattern
set, and the event -> cluster assignment.  Cluster identifiers are dense
integers ordered by decreasing size (ties by pattern text), mirroring the
paper's "P-pattern 45" / "M-cluster 13" naming.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Sequence

from repro.core.features import Dimension
from repro.core.invariants import InvariantStats
from repro.core.patterns import Pattern, PatternSet, format_pattern


@dataclass
class ClusterInfo:
    """One E-, P- or M-cluster."""

    cluster_id: int
    pattern: Pattern
    event_ids: list[int] = field(default_factory=list)

    @property
    def size(self) -> int:
        """Number of attack events in the cluster."""
        return len(self.event_ids)

    def describe(self, feature_names: Sequence[str]) -> str:
        """Render the defining pattern."""
        return format_pattern(self.pattern, feature_names)


class DimensionClustering:
    """Assignment of one dimension's events to pattern-defined clusters."""

    def __init__(
        self,
        dimension: Dimension,
        feature_names: Sequence[str],
        invariants: InvariantStats,
        pattern_set: PatternSet,
        instances: dict[int, tuple[Hashable, ...]],
    ) -> None:
        self.dimension = dimension
        self.feature_names = list(feature_names)
        self.invariants = invariants
        self.pattern_set = pattern_set

        # Instances repeat heavily: each distinct tuple is classified
        # once and its pattern reused for every event carrying it.
        by_pattern: dict[Pattern, list[int]] = {}
        pattern_of: dict[tuple[Hashable, ...], Pattern] = {}
        for event_id, values in instances.items():
            pattern = pattern_of.get(values)
            if pattern is None:
                pattern = pattern_of[values] = pattern_set.classify(values, invariants)
            by_pattern.setdefault(pattern, []).append(event_id)

        ordered = sorted(
            by_pattern.items(), key=lambda kv: (-len(kv[1]), repr(kv[0]))
        )
        self.clusters: dict[int, ClusterInfo] = {}
        self.assignment: dict[int, int] = {}
        self._cluster_of_pattern: dict[Pattern, int] = {}
        for cluster_id, (pattern, event_ids) in enumerate(ordered):
            info = ClusterInfo(
                cluster_id=cluster_id, pattern=pattern, event_ids=sorted(event_ids)
            )
            self.clusters[cluster_id] = info
            self._cluster_of_pattern[pattern] = cluster_id
            for event_id in event_ids:
                self.assignment[event_id] = cluster_id

    @property
    def n_clusters(self) -> int:
        """Number of non-empty clusters."""
        return len(self.clusters)

    @property
    def n_instances(self) -> int:
        """Number of classified events."""
        return len(self.assignment)

    def cluster_of(self, event_id: int) -> int | None:
        """Cluster id of an event, or ``None`` if it lacked this dimension."""
        return self.assignment.get(event_id)

    def cluster_of_pattern(self, pattern: Pattern) -> int | None:
        """Cluster id assigned to ``pattern``, if any instance landed on it."""
        return self._cluster_of_pattern.get(pattern)

    def sizes(self) -> dict[int, int]:
        """Cluster id -> event count."""
        return {cid: info.size for cid, info in self.clusters.items()}
