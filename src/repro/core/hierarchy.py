"""Attribute-oriented induction with generalization taxonomies.

EPM clustering is "a simplification of the multidimensional clustering
technique described by Julisch" (TISSEC 2003): where EPM jumps straight
from a concrete value to the "do not care" wildcard, Julisch's original
walks *generalization hierarchies* — a port generalizes to its service
class before collapsing to ANY, a file size to a size band, a filename
to its extension.  This module implements that richer lattice:

* :class:`Taxonomy` — a per-feature generalization hierarchy (value ->
  parent concept -> ... -> :data:`ANY`);
* :class:`AOIMiner` — mines generalized patterns such that every
  pattern covers at least ``min_size`` instances, generalizing
  under-supported patterns one taxonomy level at a time on the
  attribute that currently fragments them the most.

Unlike Julisch's batch algorithm (which generalizes *every* alarm when
an attribute is selected), the miner only generalizes patterns below
the support floor, so well-supported specific patterns survive — a
conservative variant that makes the comparison with EPM meaningful.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Sequence

from repro.util.validation import require


class _Any:
    """Singleton taxonomy root; matches every value, prints as ``ANY``."""

    _instance: "_Any | None" = None

    def __new__(cls) -> "_Any":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ANY"

    def __reduce__(self):
        return (_Any, ())


#: The top of every taxonomy.
ANY = _Any()


@dataclass(frozen=True)
class Concept:
    """An interior taxonomy node (a named group of values)."""

    name: str

    def __repr__(self) -> str:
        return f"<{self.name}>"


class Taxonomy:
    """A generalization hierarchy for one feature.

    ``parent`` maps a value or :class:`Concept` one level up; anything
    unmapped generalizes directly to :data:`ANY`.  The hierarchy must be
    acyclic; :meth:`generalize` walks exactly one level.
    """

    def __init__(self, parent: Mapping[Hashable, Hashable] | None = None) -> None:
        self._parent = dict(parent or {})
        for node in self._parent:
            require(node is not ANY, "ANY cannot be generalized further")
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        for start in self._parent:
            seen = {start}
            node = start
            while node in self._parent:
                node = self._parent[node]
                require(node not in seen, f"taxonomy cycle through {node!r}")
                seen.add(node)

    def generalize(self, value: Hashable) -> Hashable:
        """One step up the hierarchy (to :data:`ANY` when unmapped)."""
        if value is ANY:
            return ANY
        return self._parent.get(value, ANY)

    def covers(self, concept: Hashable, value: Hashable) -> bool:
        """Whether ``concept`` is an ancestor-or-self of ``value``."""
        node = value
        while True:
            if node == concept or concept is ANY:
                return True
            if node is ANY:
                return False
            node = self.generalize(node)


def flat_taxonomy() -> Taxonomy:
    """The EPM degenerate case: every value generalizes straight to ANY."""
    return Taxonomy({})


def band_taxonomy(values: Iterable[int], *, width: int, label: str) -> Taxonomy:
    """Numeric banding: value -> <label:lo-hi> -> ANY.

    >>> t = band_taxonomy([5, 17], width=10, label="size")
    >>> t.generalize(5)
    <size:0-9>
    """
    require(width > 0, "band width must be positive")
    parent: dict[Hashable, Hashable] = {}
    for value in values:
        if not isinstance(value, int):
            continue
        lo = (value // width) * width
        parent[value] = Concept(f"{label}:{lo}-{lo + width - 1}")
    return Taxonomy(parent)


Pattern = tuple[Hashable, ...]


@dataclass
class AOIResult:
    """Mined generalized patterns and the instance assignment."""

    feature_names: list[str]
    patterns: list[Pattern]
    support: dict[Pattern, int]
    assignment: dict[int, Pattern]

    @property
    def n_patterns(self) -> int:
        """Number of generalized patterns."""
        return len(self.patterns)

    def describe(self, pattern: Pattern) -> str:
        """Render one pattern."""
        parts = [
            f"{name}={value!r}" if value is not ANY else f"{name}=ANY"
            for name, value in zip(self.feature_names, pattern)
        ]
        return "{" + ", ".join(parts) + "}"


class AOIMiner:
    """Attribute-oriented induction over a feature table."""

    def __init__(
        self,
        feature_names: Sequence[str],
        taxonomies: Mapping[str, Taxonomy] | None = None,
        *,
        min_size: int = 10,
    ) -> None:
        require(len(feature_names) > 0, "need at least one feature")
        require(min_size >= 1, "min_size must be >= 1")
        self.feature_names = list(feature_names)
        self.min_size = min_size
        taxonomies = dict(taxonomies or {})
        self.taxonomies = [
            taxonomies.get(name, flat_taxonomy()) for name in self.feature_names
        ]

    def _fragmentation(
        self, patterns: Counter, attribute: int, weak: list[Pattern]
    ) -> int:
        """How many distinct values the weak patterns show on ``attribute``."""
        return len({pattern[attribute] for pattern in weak})

    def fit(self, instances: Sequence[Sequence[Hashable]]) -> AOIResult:
        """Mine generalized patterns covering >= ``min_size`` instances each.

        Instances whose pattern cannot reach the floor even at full
        generalization end up in the all-ANY root pattern.
        """
        n = len(self.feature_names)
        for instance in instances:
            require(len(instance) == n, "instance arity mismatch")

        current: list[Pattern] = [tuple(i) for i in instances]
        table: Counter = Counter(current)

        while True:
            weak = [p for p, s in table.items() if s < self.min_size]
            if not weak:
                break
            candidates = [
                (self._fragmentation(table, attribute, weak), attribute)
                for attribute in range(n)
                if any(p[attribute] is not ANY for p in weak)
            ]
            if not candidates:
                break  # everything weak is fully generalized already
            _score, attribute = max(candidates)
            taxonomy = self.taxonomies[attribute]
            new_table: Counter = Counter()
            rewrite: dict[Pattern, Pattern] = {}
            for pattern, support in table.items():
                if support < self.min_size and pattern[attribute] is not ANY:
                    lifted = list(pattern)
                    lifted[attribute] = taxonomy.generalize(pattern[attribute])
                    new_pattern = tuple(lifted)
                else:
                    new_pattern = pattern
                rewrite[pattern] = new_pattern
                new_table[new_pattern] += support
            current = [rewrite[p] for p in current]
            table = new_table

        assignment = {index: pattern for index, pattern in enumerate(current)}
        patterns = sorted(table, key=lambda p: (-table[p], repr(p)))
        return AOIResult(
            feature_names=self.feature_names,
            patterns=patterns,
            support=dict(table),
            assignment=assignment,
        )
