"""Behavioural profiles: abstract OS-level behaviour descriptions.

Following Bayer et al. (NDSS 2009), a profile is a *set* of features,
each describing one operation on one OS object — e.g. creating a mutex,
writing a file, resolving a DNS name, joining an IRC channel.  Profiles
compare by Jaccard similarity over their feature sets, which is also the
similarity the LSH clustering approximates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.util.hashing import stable_hash64
from repro.util.stats import jaccard

#: One profile feature: (object category, object name, operation).
Feature = tuple[str, str, str]


def _profile_of(features: tuple[Feature, ...]) -> "BehaviorProfile":
    """Unpickle a :class:`BehaviorProfile` from its sorted features."""
    return BehaviorProfile(frozenset(features))


@dataclass(frozen=True)
class BehaviorProfile:
    """An immutable set of behavioural features for one execution."""

    features: frozenset[Feature]

    @classmethod
    def from_features(cls, features: Iterable[Feature]) -> "BehaviorProfile":
        """Build a profile from any iterable of features."""
        return cls(features=frozenset(features))

    def __len__(self) -> int:
        return len(self.features)

    def __iter__(self) -> Iterator[Feature]:
        return iter(self.features)

    def __contains__(self, feature: Feature) -> bool:
        return feature in self.features

    def __reduce__(self):
        # A frozenset pickles in hash order, which follows the string-hash
        # seed; sorted features make the pickled bytes independent of it.
        return (_profile_of, (tuple(sorted(self.features)),))

    def similarity(self, other: "BehaviorProfile") -> float:
        """Jaccard similarity with another profile."""
        return jaccard(self.features, other.features)

    def union(self, other: "BehaviorProfile") -> "BehaviorProfile":
        """Feature union (used when merging repeated executions)."""
        return BehaviorProfile(self.features | other.features)

    def hashed_features(self) -> set[int]:
        """Stable 64-bit hashes of the features (MinHash input)."""
        return {
            stable_hash64("\x1f".join(feature), salt="behavior-feature")
            for feature in self.features
        }

    def by_category(self) -> dict[str, list[Feature]]:
        """Features grouped by object category, for report rendering."""
        grouped: dict[str, list[Feature]] = {}
        for feature in sorted(self.features):
            grouped.setdefault(feature[0], []).append(feature)
        return grouped

    def describe(self, *, max_lines: int = 40) -> str:
        """Human-readable multi-line rendering (an Anubis report excerpt)."""
        lines: list[str] = []
        for category, features in self.by_category().items():
            for feature in features:
                lines.append(f"{category}: {feature[2]} {feature[1]}")
        if len(lines) > max_lines:
            hidden = len(lines) - max_lines
            lines = lines[:max_lines] + [f"... ({hidden} more)"]
        return "\n".join(lines)
