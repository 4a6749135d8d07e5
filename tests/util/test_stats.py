"""Tests for the statistics helpers."""

import pytest

from repro.util.stats import (
    burstiness,
    entropy,
    frequency,
    jaccard,
    normalized_entropy,
    quantile,
)
from repro.util.validation import ValidationError


class TestFrequency:
    def test_counts(self):
        assert frequency(["a", "b", "a"]) == {"a": 2, "b": 1}

    def test_descending_order(self):
        keys = list(frequency(["x", "y", "y", "z", "z", "z"]).keys())
        assert keys == ["z", "y", "x"]

    def test_empty(self):
        assert frequency([]) == {}


class TestEntropy:
    def test_uniform_two(self):
        assert entropy([1, 1]) == pytest.approx(1.0)

    def test_degenerate(self):
        assert entropy([10]) == 0.0

    def test_mapping_input(self):
        assert entropy({"a": 2, "b": 2}) == pytest.approx(1.0)

    def test_uniform_n(self):
        assert entropy([1] * 8) == pytest.approx(3.0)

    def test_requires_observations(self):
        with pytest.raises(ValidationError):
            entropy([0, 0])

    def test_zero_counts_ignored(self):
        assert entropy([2, 2, 0]) == pytest.approx(1.0)


class TestNormalizedEntropy:
    def test_bounds(self):
        assert 0.0 <= normalized_entropy([3, 1, 1]) <= 1.0

    def test_uniform_is_one(self):
        assert normalized_entropy([5, 5, 5]) == pytest.approx(1.0)

    def test_single_support_is_zero(self):
        assert normalized_entropy([7]) == 0.0

    def test_concentration_lowers_it(self):
        assert normalized_entropy([100, 1, 1]) < normalized_entropy([34, 34, 34])


class TestJaccard:
    def test_identical(self):
        assert jaccard({1, 2}, {1, 2}) == 1.0

    def test_disjoint(self):
        assert jaccard({1}, {2}) == 0.0

    def test_both_empty(self):
        assert jaccard(set(), set()) == 1.0

    def test_half_overlap(self):
        assert jaccard({1, 2}, {2, 3}) == pytest.approx(1 / 3)

    def test_symmetry(self):
        a, b = {1, 2, 3}, {3, 4}
        assert jaccard(a, b) == jaccard(b, a)


class TestBurstiness:
    def test_periodic_is_minus_one(self):
        assert burstiness([5.0] * 20) == pytest.approx(-1.0)

    def test_bursty_is_positive(self):
        gaps = [0.1] * 30 + [1000.0]
        assert burstiness(gaps) > 0.5

    def test_requires_gaps(self):
        with pytest.raises(ValidationError):
            burstiness([])

    def test_all_zero_gaps(self):
        assert burstiness([0.0, 0.0]) == 0.0

    def test_range(self):
        gaps = [1.0, 2.0, 3.0, 100.0]
        assert -1.0 <= burstiness(gaps) <= 1.0


class TestQuantile:
    def test_median_odd(self):
        assert quantile([3, 1, 2], 0.5) == 2

    def test_min_max(self):
        data = [4.0, 8.0, 15.0]
        assert quantile(data, 0.0) == 4.0
        assert quantile(data, 1.0) == 15.0

    def test_interpolation(self):
        assert quantile([0.0, 10.0], 0.25) == pytest.approx(2.5)

    def test_single_value(self):
        assert quantile([7.0], 0.9) == 7.0

    def test_rejects_bad_q(self):
        with pytest.raises(ValidationError):
            quantile([1.0], 1.5)

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            quantile([], 0.5)
