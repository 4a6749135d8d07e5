"""Phase 2 — invariant discovery.

An *invariant value* of a feature is a "good", event-type-characterising
value: per the paper's threshold-based definition, a value qualifies if
it was seen in at least 10 attack instances, used by at least 3 distinct
attackers, and witnessed by at least 3 distinct honeypot addresses.  The
three thresholds are :class:`InvariantPolicy` knobs (the ablation bench
sweeps them).

The triple constraint is what defeats sloppier randomisation: an
attacker-specific value (e.g. the per-source MD5s of the paper's
M-cluster 13) can easily be *frequent* yet never becomes invariant,
because one attacker alone cannot satisfy the source-diversity
requirement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from repro.util.validation import require

#: One observed instance for a dimension:
#: (feature value tuple, attacker address, honeypot address).
Observation = tuple[tuple[Hashable, ...], int, int]


@dataclass(frozen=True)
class InvariantPolicy:
    """Thresholds defining what counts as an invariant value."""

    min_instances: int = 10
    min_sources: int = 3
    min_sensors: int = 3

    def __post_init__(self) -> None:
        require(self.min_instances >= 1, "min_instances must be >= 1")
        require(self.min_sources >= 1, "min_sources must be >= 1")
        require(self.min_sensors >= 1, "min_sensors must be >= 1")


@dataclass
class InvariantStats:
    """Discovery output for one dimension.

    ``invariants[i]`` is the set of invariant values of feature ``i``;
    ``support[i][v]`` its raw instance count (kept for reporting).
    """

    feature_names: list[str]
    invariants: list[set[Hashable]]
    support: list[dict[Hashable, int]]

    def count_per_feature(self) -> dict[str, int]:
        """Feature name -> number of invariant values (Table 1's column)."""
        return {
            name: len(values)
            for name, values in zip(self.feature_names, self.invariants)
        }

    def __getstate__(self) -> dict:
        # A set pickles in hash order, which follows the string-hash seed;
        # sorted lists make the pickled bytes independent of it.
        state = self.__dict__.copy()
        state["invariants"] = [sorted(values, key=repr) for values in self.invariants]
        return state

    def __setstate__(self, state: dict) -> None:
        state["invariants"] = [set(values) for values in state["invariants"]]
        self.__dict__.update(state)

    def is_invariant(self, feature_index: int, value: Hashable) -> bool:
        """Whether ``value`` is invariant for the ``feature_index``-th feature."""
        return value in self.invariants[feature_index]

    @property
    def total_invariants(self) -> int:
        """Total invariant values across all features."""
        return sum(len(values) for values in self.invariants)


def discover_invariants(
    observations: Sequence[Observation],
    feature_names: Sequence[str],
    policy: InvariantPolicy | None = None,
) -> InvariantStats:
    """Run invariant discovery over one dimension's observations.

    Every observation tuple must have exactly ``len(feature_names)``
    values.  Complexity is O(instances x features).
    """
    policy = policy or InvariantPolicy()
    n_features = len(feature_names)
    require(n_features > 0, "need at least one feature")

    counts: list[dict[Hashable, int]] = [{} for _ in range(n_features)]
    sources: list[dict[Hashable, set[int]]] = [{} for _ in range(n_features)]
    sensors: list[dict[Hashable, set[int]]] = [{} for _ in range(n_features)]

    for values, source, sensor in observations:
        require(
            len(values) == n_features,
            f"observation has {len(values)} values, expected {n_features}",
        )
        for i, value in enumerate(values):
            counts[i][value] = counts[i].get(value, 0) + 1
            sources[i].setdefault(value, set()).add(source)
            sensors[i].setdefault(value, set()).add(sensor)

    invariants: list[set[Hashable]] = []
    support: list[dict[Hashable, int]] = []
    for i in range(n_features):
        good = {
            value
            for value, n in counts[i].items()
            if n >= policy.min_instances
            and len(sources[i][value]) >= policy.min_sources
            and len(sensors[i][value]) >= policy.min_sensors
        }
        invariants.append(good)
        support.append({value: counts[i][value] for value in good})

    return InvariantStats(
        feature_names=list(feature_names),
        invariants=invariants,
        support=support,
    )


def discover_invariants_columnar(
    codes: np.ndarray,
    source_codes: np.ndarray,
    sensor_codes: np.ndarray,
    vocabularies: Sequence[Sequence[Hashable]],
    feature_names: Sequence[str],
    policy: InvariantPolicy | None = None,
) -> InvariantStats:
    """Vectorized invariant discovery over interned value codes.

    ``codes`` is the ``(n_observations, n_features)`` matrix of a
    :class:`~repro.egpm.columnar.DimensionColumns` view;
    ``source_codes``/``sensor_codes`` are the aligned interned address
    codes and ``vocabularies[f]`` decodes feature ``f``'s codes back to
    original values.  The instance count per value is one
    ``np.bincount`` per feature; distinct source/sensor counts come
    from deduplicating ``value_code * n_addresses + address_code``
    composite keys with ``np.unique``.  The result is value-for-value
    equal to :func:`discover_invariants` over the decoded observations
    — code/address interning is bijective, so counts and distinct
    counts are the same integers.
    """
    policy = policy or InvariantPolicy()
    n_features = len(feature_names)
    require(n_features > 0, "need at least one feature")
    codes = np.asarray(codes, dtype=np.int64)
    require(
        codes.ndim == 2 and codes.shape[1] == n_features,
        f"codes matrix has shape {codes.shape}, expected (*, {n_features})",
    )
    source_codes = np.asarray(source_codes, dtype=np.int64)
    sensor_codes = np.asarray(sensor_codes, dtype=np.int64)
    n_source_codes = int(source_codes.max()) + 1 if len(source_codes) else 1
    n_sensor_codes = int(sensor_codes.max()) + 1 if len(sensor_codes) else 1

    invariants: list[set[Hashable]] = []
    support: list[dict[Hashable, int]] = []
    for f in range(n_features):
        column = codes[:, f]
        size = len(vocabularies[f])
        counts = np.bincount(column, minlength=size)
        source_pairs = np.unique(column * n_source_codes + source_codes)
        n_sources = np.bincount(source_pairs // n_source_codes, minlength=size)
        sensor_pairs = np.unique(column * n_sensor_codes + sensor_codes)
        n_sensors = np.bincount(sensor_pairs // n_sensor_codes, minlength=size)
        good_codes = np.nonzero(
            (counts >= policy.min_instances)
            & (n_sources >= policy.min_sources)
            & (n_sensors >= policy.min_sensors)
        )[0]
        decode = vocabularies[f]
        invariants.append({decode[code] for code in good_codes.tolist()})
        support.append(
            {decode[code]: int(counts[code]) for code in good_codes.tolist()}
        )

    return InvariantStats(
        feature_names=list(feature_names),
        invariants=invariants,
        support=support,
    )
