"""Phases 3 and 4 — pattern discovery and most-specific matching.

A *pattern* is a tuple ``(v_1, ..., v_n)`` over a dimension's features
where each ``v_i`` is either an invariant value or the "do not care"
:data:`WILDCARD`.  Pattern discovery masks every observed instance —
keeping invariant values, wildcarding everything else — and collects the
distinct masked tuples (optionally pruning rare ones).

Classification assigns each instance the **most specific** matching
pattern: specificity is the number of non-wildcard fields, with ties
broken by higher support and then lexicographic order, so assignment is
total and deterministic.  Because every pattern arises by masking, an
instance's own mask — when present in the set — is always its unique
most-specific match, which makes the common case O(1).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

from repro.core.invariants import InvariantStats
from repro.util.validation import require


class _Wildcard:
    """Singleton "do not care" marker; sorts stably and prints as ``*``."""

    _instance: "_Wildcard | None" = None

    def __new__(cls) -> "_Wildcard":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "*"

    def __reduce__(self):
        return (_Wildcard, ())


#: The "do not care" value used in patterns.
WILDCARD = _Wildcard()

Pattern = tuple[Hashable, ...]


def mask_instance(values: Sequence[Hashable], invariants: InvariantStats) -> Pattern:
    """Mask an instance tuple: invariant values kept, others wildcarded."""
    require(
        len(values) == len(invariants.feature_names),
        "instance arity does not match invariant stats",
    )
    return tuple(
        value if invariants.is_invariant(i, value) else WILDCARD
        for i, value in enumerate(values)
    )


def pattern_matches(pattern: Pattern, values: Sequence[Hashable]) -> bool:
    """Whether ``values`` is an instance of ``pattern``."""
    if len(pattern) != len(values):
        return False
    return all(p is WILDCARD or p == v for p, v in zip(pattern, values))


def specificity(pattern: Pattern) -> int:
    """Number of non-wildcard fields."""
    return sum(1 for p in pattern if p is not WILDCARD)


def generalizes(general: Pattern, specific: Pattern) -> bool:
    """Whether ``general`` matches every instance ``specific`` matches."""
    if len(general) != len(specific):
        return False
    return all(
        g is WILDCARD or g == s for g, s in zip(general, specific)
    )


@dataclass(frozen=True)
class _RankedPattern:
    pattern: Pattern
    support: int

    @property
    def sort_key(self) -> tuple:
        return (-specificity(self.pattern), -self.support, repr(self.pattern))


class PatternSet:
    """The discovered patterns of one dimension, ready for classification."""

    def __init__(self, patterns: dict[Pattern, int]) -> None:
        require(len(patterns) > 0, "PatternSet cannot be empty")
        self._support = dict(patterns)
        self._ranked = sorted(
            (_RankedPattern(p, s) for p, s in patterns.items()),
            key=lambda rp: rp.sort_key,
        )

    @classmethod
    def discover(
        cls,
        instances: Iterable[tuple[Hashable, ...]],
        invariants: InvariantStats,
        *,
        min_support: int = 1,
    ) -> "PatternSet":
        """Phase 3: collect the distinct masked tuples of ``instances``.

        Patterns below ``min_support`` are pruned; the all-wildcard root
        pattern is always retained so classification stays total (it is
        the "anything" cluster instances fall back to).

        Instances repeat heavily, so each distinct instance is masked
        once and contributes its multiplicity; patterns keep the order
        of their first instance, as a per-instance count would.
        """
        require(min_support >= 1, "min_support must be >= 1")
        multiplicity = Counter(instances)
        counts: dict[Pattern, int] = {}
        n_features = len(invariants.feature_names)
        for values, n in multiplicity.items():
            masked = mask_instance(values, invariants)
            counts[masked] = counts.get(masked, 0) + n
        total = sum(multiplicity.values())
        kept = {p: s for p, s in counts.items() if s >= min_support}
        root: Pattern = tuple([WILDCARD] * n_features)
        if root not in kept:
            kept[root] = total - sum(kept.values())
        return cls(kept)

    @property
    def patterns(self) -> list[Pattern]:
        """All patterns, most specific first."""
        return [rp.pattern for rp in self._ranked]

    def support_of(self, pattern: Pattern) -> int:
        """Discovery-time instance count of ``pattern``."""
        return self._support[pattern]

    def __len__(self) -> int:
        return len(self._support)

    def __contains__(self, pattern: Pattern) -> bool:
        return pattern in self._support

    def classify(
        self, values: Sequence[Hashable], invariants: InvariantStats
    ) -> Pattern:
        """Phase 4: the most specific pattern matching ``values``.

        Fast path: the instance's own mask, when present.  Otherwise the
        most-specific-first scan; the root pattern guarantees a hit.
        """
        masked = mask_instance(values, invariants)
        if masked in self._support:
            return masked
        return self.scan_classify(values)

    def scan_classify(self, values: Sequence[Hashable]) -> Pattern:
        """The pure linear reference path: scan the ranked list,
        most specific first, no fast path.  This is the semantics every
        accelerated path (the own-mask shortcut,
        :class:`~repro.core.pattern_index.PatternIndex`) must reproduce
        bit for bit."""
        for ranked in self._ranked:
            if pattern_matches(ranked.pattern, values):
                return ranked.pattern
        raise ValueError("no pattern matches the instance")

    def matching_patterns(self, values: Sequence[Hashable]) -> list[Pattern]:
        """All patterns matching ``values`` (most specific first).

        The paper notes multiple patterns can match one instance (e.g.
        ``(*, 2, 3)`` and ``(*, *, 3)`` both match ``(1, 2, 3)``); this
        returns the full list for inspection and tests.
        """
        return [
            rp.pattern for rp in self._ranked if pattern_matches(rp.pattern, values)
        ]


def format_pattern(pattern: Pattern, feature_names: Sequence[str]) -> str:
    """Render a pattern as ``{name=value, ...}`` with ``*`` wildcards."""
    require(len(pattern) == len(feature_names), "pattern arity mismatch")
    parts = []
    for name, value in zip(feature_names, pattern):
        rendered = "*" if value is WILDCARD else repr(value)
        parts.append(f"{name}={rendered}")
    return "{" + ", ".join(parts) + "}"
