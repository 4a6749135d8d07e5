"""Small statistics helpers used by the analysis layer.

These are deliberately dependency-light (plain Python + math) because
they run inside tight loops over clusters and events.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Hashable, Iterable, Mapping, Sequence

from repro.util.validation import require


def frequency(items: Iterable[Hashable]) -> dict[Hashable, int]:
    """Count occurrences of each item, in descending-count order."""
    counts = Counter(items)
    return dict(sorted(counts.items(), key=lambda kv: (-kv[1], str(kv[0]))))


def entropy(counts: Mapping[Hashable, int] | Sequence[int]) -> float:
    """Shannon entropy (bits) of a discrete distribution given by counts.

    >>> entropy([1, 1]) == 1.0
    True
    >>> entropy([4]) == 0.0
    True
    """
    values = list(counts.values()) if isinstance(counts, Mapping) else list(counts)
    total = sum(values)
    require(total > 0, "entropy requires at least one observation")
    result = 0.0
    for v in values:
        if v > 0:
            p = v / total
            result -= p * math.log2(p)
    return result


def normalized_entropy(counts: Mapping[Hashable, int] | Sequence[int]) -> float:
    """Entropy scaled to [0, 1] by the maximum for the observed support size."""
    values = list(counts.values()) if isinstance(counts, Mapping) else list(counts)
    nonzero = sum(1 for v in values if v > 0)
    if nonzero <= 1:
        return 0.0
    return entropy(values) / math.log2(nonzero)


def jaccard(a: frozenset | set, b: frozenset | set) -> float:
    """Jaccard similarity of two sets; 1.0 when both are empty."""
    if not a and not b:
        return 1.0
    inter = len(a & b)
    return inter / (len(a) + len(b) - inter)


def burstiness(interarrival: Sequence[float]) -> float:
    """Goh-Barabasi burstiness of inter-arrival times, in [-1, 1].

    -1 is perfectly periodic, 0 is Poisson-like, values near +1 are
    strongly bursty (long silences punctuated by tight clusters), which
    is the temporal signature the paper associates with bot activity.
    """
    require(len(interarrival) > 0, "burstiness requires at least one gap")
    mean = sum(interarrival) / len(interarrival)
    if mean == 0:
        return 0.0
    var = sum((x - mean) ** 2 for x in interarrival) / len(interarrival)
    sigma = math.sqrt(var)
    if sigma + mean == 0:
        return 0.0
    return (sigma - mean) / (sigma + mean)


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile of a sample (q in [0, 1])."""
    require(len(values) > 0, "quantile requires at least one value")
    require(0.0 <= q <= 1.0, "q must be in [0, 1]")
    data = sorted(values)
    if len(data) == 1:
        return data[0]
    pos = q * (len(data) - 1)
    lower = int(math.floor(pos))
    upper = int(math.ceil(pos))
    if lower == upper:
        return data[lower]
    frac = pos - lower
    return data[lower] * (1 - frac) + data[upper] * frac
