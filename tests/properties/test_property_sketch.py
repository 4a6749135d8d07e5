"""Hypothesis property tests for the streaming-quantile sketch.

Two contracts carry the PR's telemetry guarantees and both are stated
here as universally quantified properties: every quantile estimate is
within the declared relative error of the exact order statistic, and
merging independently sketched shards is indistinguishable from
sketching the whole stream (the payloads are compared wholesale, which
is exactly the digest check the manifest layer relies on).
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.sketch import DEFAULT_ALPHA, QuantileSketch

# Three orders of magnitude: comfortably inside the default bin budget,
# so the boundary fold never interferes with the error-bound property.
observations = st.lists(
    st.floats(min_value=0.1, max_value=100.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=200,
)

# Integer-valued floats sum exactly in any order, so the shard-merge
# property can compare full payloads (including ``sum``) for equality.
integer_observations = st.lists(
    st.integers(min_value=0, max_value=100_000).map(float),
    min_size=1,
    max_size=200,
)

quantiles = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def _filled(values, **kwargs):
    sketch = QuantileSketch(**kwargs)
    for value in values:
        sketch.observe(value)
    return sketch


class TestSketchProperties:
    @given(observations, quantiles)
    @settings(max_examples=200, deadline=None)
    def test_estimate_within_declared_relative_error(self, values, q):
        sketch = _filled(values)
        estimate = sketch.quantile(q)
        exact = sorted(values)[math.floor(q * (len(values) - 1))]
        assert abs(estimate - exact) <= DEFAULT_ALPHA * exact + 1e-12

    @given(integer_observations, st.integers(min_value=1, max_value=5))
    @settings(max_examples=150, deadline=None)
    def test_merge_of_shards_equals_one_sketch(self, values, n_shards):
        whole = _filled(values)
        merged = QuantileSketch()
        for offset in range(n_shards):
            merged.merge(_filled(values[offset::n_shards]))
        assert merged.as_dict() == whole.as_dict()

    @given(
        integer_observations,
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=2, max_value=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_merge_equals_whole_under_heavy_folding(
        self, values, n_shards, max_bins
    ):
        whole = _filled(values, max_bins=max_bins)
        merged = QuantileSketch(max_bins=max_bins)
        for offset in range(n_shards):
            merged.merge(_filled(values[offset::n_shards], max_bins=max_bins))
        assert merged.as_dict() == whole.as_dict()
        assert len(merged.bins) <= max_bins

    @given(observations, quantiles, quantiles)
    @settings(max_examples=150, deadline=None)
    def test_monotone_in_q(self, values, q1, q2):
        sketch = _filled(values)
        low, high = sorted((q1, q2))
        assert sketch.quantile(low) <= sketch.quantile(high)

    @given(observations)
    @settings(max_examples=100, deadline=None)
    def test_payload_is_insertion_order_independent(self, values):
        forward = _filled(values).as_dict()
        backward = _filled(reversed(values)).as_dict()
        # ``sum`` is the one order-sensitive field (float addition); a
        # run observes its values in one fixed order, which sidesteps it.
        assert math.isclose(forward.pop("sum"), backward.pop("sum"))
        assert forward == backward

    @given(observations)
    @settings(max_examples=100, deadline=None)
    def test_count_and_extremes_are_exact(self, values):
        sketch = _filled(values)
        assert sketch.count == len(values)
        assert sketch.min == min(values)
        assert sketch.max == max(values)
