"""Mergeable streaming-quantile sketch with a guaranteed relative error.

The telemetry's distributions have no range known up front (chunk
seconds at 1000x scale, LSH bucket sizes, event inter-arrival gaps):
any fixed bucket layout either saturates at its top bound or wastes
resolution.  :class:`QuantileSketch` is the DDSketch-style answer, and
the one distribution instrument of :mod:`repro.obs.metrics`:
logarithmically spaced bins sized so every quantile estimate is within
a *relative* error ``alpha`` of the true value, with a hard cap on the
number of resident bins — O(max_bins) memory no matter how many
observations stream through.

Two properties make it fit the repro telemetry contract:

* **Deterministic serialization** — :meth:`QuantileSketch.as_dict` is a
  pure function of the observed multiset (bin counts are integers, the
  min/max are exact, nothing depends on insertion order), so two runs
  that observe the same values produce byte-identical payloads.  The
  floating ``sum`` is the one order-sensitive field; the parallel
  executors merge per-chunk snapshots in chunk order on every backend,
  so even it is bit-identical across serial/thread/process runs.
* **Exact merge** — :meth:`QuantileSketch.merge` folds another sketch's
  payload in by adding bin counts and re-applying the canonical
  *boundary-fold* collapse.  The collapse folds every bin more than
  ``max_bins`` below the highest occupied bin into the boundary bin —
  a rule keyed only on the global maximum index, so it commutes with
  merging: sketching shards independently and merging gives the same
  bins as one sketch fed everything.  That is what lets per-worker and
  per-shard sketches reduce into the run-level summary digest-checked.

Values must be >= 0 (telemetry series are counts, sizes and seconds);
values below :data:`MIN_TRACKABLE` land in an exact ``zeros`` counter
rather than a bin, and quantiles falling there report ``0.0``.
"""

from __future__ import annotations

import math
from typing import Mapping

from repro.util.validation import require

#: Default relative-error bound: quantile estimates are within 1%.
DEFAULT_ALPHA = 0.01

#: Default cap on resident bins.  With alpha=0.01 each bin spans a
#: factor of ~1.02, so 512 bins cover ~4 orders of magnitude above the
#: lowest retained bin before the boundary fold starts costing low-end
#: resolution (the fold only ever degrades the *smallest* values).
DEFAULT_MAX_BINS = 512

#: Observations below this are counted exactly as zeros, not binned.
MIN_TRACKABLE = 1e-9


class QuantileSketch:
    """DDSketch-style streaming quantile sketch (non-negative values).

    >>> sketch = QuantileSketch(alpha=0.01)
    >>> for value in range(1, 1001):
    ...     sketch.observe(float(value))
    >>> true_p50 = 500.0
    >>> abs(sketch.quantile(0.5) - true_p50) <= 0.01 * true_p50
    True
    """

    __slots__ = (
        "alpha",
        "max_bins",
        "_gamma",
        "_log_gamma",
        "_max_index",
        "bins",
        "zeros",
        "count",
        "total",
        "min",
        "max",
    )

    def __init__(
        self, alpha: float = DEFAULT_ALPHA, max_bins: int = DEFAULT_MAX_BINS
    ) -> None:
        require(0.0 < alpha < 1.0, "sketch alpha must be in (0, 1)")
        require(max_bins >= 2, "sketch needs at least two bins")
        self.alpha = float(alpha)
        self.max_bins = int(max_bins)
        self._gamma = (1.0 + self.alpha) / (1.0 - self.alpha)
        self._log_gamma = math.log(self._gamma)
        self.bins: dict[int, int] = {}
        self._max_index = 0  # meaningful only while bins is non-empty
        self.zeros = 0
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def _index(self, value: float) -> int:
        """The bin index of ``value``: ceil(log_gamma(value))."""
        return math.ceil(math.log(value) / self._log_gamma - 1e-12)

    def _value(self, index: int) -> float:
        """The representative value of bin ``index`` (its midpoint in
        relative terms: within ``alpha`` of anything the bin holds)."""
        return 2.0 * self._gamma**index / (self._gamma + 1.0)

    def observe(self, value: float) -> None:
        """Record one observation (must be >= 0)."""
        value = float(value)
        require(value >= 0.0, "sketch values must be non-negative")
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        if value < MIN_TRACKABLE:
            self.zeros += 1
            return
        index = self._index(value)
        if not self.bins:
            self.bins[index] = 1
            self._max_index = index
            return
        if index > self._max_index:
            # A new global maximum can raise the boundary past resident
            # bins; re-fold so the invariant holds after every observe.
            self._max_index = index
            self.bins[index] = self.bins.get(index, 0) + 1
            self._collapse()
            return
        boundary = self._max_index - self.max_bins + 1
        if index < boundary:
            index = boundary  # fold the newcomer straight in
        self.bins[index] = self.bins.get(index, 0) + 1

    def _collapse(self) -> None:
        """Canonical boundary fold: every bin more than ``max_bins``
        below the highest occupied index folds into the boundary bin.

        The fold is a *standing invariant*, keyed only on the maximum
        occupied index — never on how full the sketch happens to be —
        so the resident bins are a pure function of the observed
        multiset: folding incrementally, folding once at the end, or
        folding after a merge all land in the same state.  That is the
        property that makes :meth:`merge` commute with observation.
        """
        if not self.bins:
            return
        self._max_index = max(self.bins)
        boundary = self._max_index - self.max_bins + 1
        folded = 0
        for index in [k for k in self.bins if k < boundary]:
            folded += self.bins.pop(index)
        if folded:
            self.bins[boundary] = self.bins.get(boundary, 0) + folded

    def quantile(self, q: float) -> float | None:
        """Estimate the ``q``-quantile; ``None`` on an empty sketch.

        For values that landed in a bin (>= :data:`MIN_TRACKABLE` and
        above the boundary fold) the estimate is within ``alpha``
        relative error of the true quantile.  Ranks that fall in the
        zeros counter report ``0.0`` exactly.
        """
        require(0.0 <= q <= 1.0, "quantile must be in [0, 1]")
        if self.count == 0:
            return None
        rank = q * (self.count - 1)
        if rank < self.zeros:
            return 0.0
        cumulative = self.zeros
        for index in sorted(self.bins):
            cumulative += self.bins[index]
            if rank < cumulative:
                return self._value(index)
        return self.max if self.max is not None else 0.0

    def merge(self, payload: "QuantileSketch | Mapping") -> None:
        """Fold another sketch (live or :meth:`as_dict` payload) in.

        Merging requires an identical ``(alpha, max_bins)`` shape: bins
        of different widths do not line up.
        """
        other = payload.as_dict() if isinstance(payload, QuantileSketch) else payload
        require(
            float(other.get("alpha", -1.0)) == self.alpha
            and int(other.get("max_bins", -1)) == self.max_bins,
            "cannot merge sketches with different (alpha, max_bins) shapes",
        )
        for key, count in other.get("bins", {}).items():
            index = int(key)
            self.bins[index] = self.bins.get(index, 0) + int(count)
        self.zeros += int(other.get("zeros", 0))
        self.count += int(other.get("count", 0))
        self.total += float(other.get("sum", 0.0))
        for bound, pick in (("min", min), ("max", max)):
            theirs = other.get(bound)
            if theirs is not None:
                ours = getattr(self, bound)
                setattr(
                    self,
                    bound,
                    float(theirs) if ours is None else pick(ours, float(theirs)),
                )
        self._collapse()

    def as_dict(self) -> dict:
        """Deterministic plain-dict export (bin keys are stringified
        indices; counts, zeros, min and max are exact)."""
        return {
            "alpha": self.alpha,
            "max_bins": self.max_bins,
            "zeros": self.zeros,
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "bins": {str(index): self.bins[index] for index in sorted(self.bins)},
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "QuantileSketch":
        """Rebuild a sketch from its :meth:`as_dict` form."""
        sketch = cls(
            alpha=float(payload.get("alpha", DEFAULT_ALPHA)),
            max_bins=int(payload.get("max_bins", DEFAULT_MAX_BINS)),
        )
        sketch.merge(payload)
        # merge() recomputes count/sum from the payload, so only the
        # exact fields need restating — nothing else to do.
        return sketch


def sketch_quantile_from_payload(payload: Mapping, q: float) -> float | None:
    """Quantile estimate straight off an exported sketch payload.

    Works on the plain-dict form snapshots and manifests carry, so
    ``repro obs history``/``query`` and the exporters read quantiles of
    stored runs without rebuilding live instruments.
    """
    require(0.0 <= q <= 1.0, "quantile must be in [0, 1]")
    if int(payload.get("count", 0)) == 0:
        return None
    return QuantileSketch.from_dict(payload).quantile(q)
