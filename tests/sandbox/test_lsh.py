"""Tests for MinHash signatures and the LSH index."""

import random

import pytest

from repro.sandbox.lsh import LSHIndex, MinHasher
from repro.util.validation import ValidationError


def random_set(rng, size):
    return {rng.getrandbits(64) for _ in range(size)}


class TestMinHasher:
    def test_signature_length(self):
        hasher = MinHasher(40)
        assert len(hasher.signature({1, 2, 3})) == 40

    def test_deterministic(self):
        a = MinHasher(16, seed=1)
        b = MinHasher(16, seed=1)
        assert a.signature({5, 6}) == b.signature({5, 6})

    def test_seed_changes_functions(self):
        a = MinHasher(16, seed=1)
        b = MinHasher(16, seed=2)
        assert a.signature({5, 6}) != b.signature({5, 6})

    def test_identical_sets_identical_signatures(self):
        hasher = MinHasher(32)
        assert hasher.signature({1, 2, 3}) == hasher.signature({3, 2, 1})

    def test_empty_set_sentinel(self):
        hasher = MinHasher(8)
        sig = hasher.signature(set())
        assert len(set(sig)) == 1
        assert all(x != y for x, y in zip(sig, hasher.signature({1})))

    def test_rejects_zero_hashes(self):
        with pytest.raises(ValidationError):
            MinHasher(0)


class TestLSHIndex:
    def test_signature_length_property(self):
        assert LSHIndex(bands=5, rows=4).signature_length == 20

    def test_add_validates_length(self):
        index = LSHIndex(bands=2, rows=2)
        with pytest.raises(ValidationError):
            index.add("a", (1, 2, 3))

    def test_identical_signatures_are_candidates(self):
        index = LSHIndex(bands=2, rows=2)
        index.add("a", (1, 2, 3, 4))
        index.add("b", (1, 2, 3, 4))
        assert index.candidate_pairs() == {("a", "b")}

    def test_single_band_match_suffices(self):
        index = LSHIndex(bands=2, rows=2)
        index.add("a", (1, 2, 9, 9))
        index.add("b", (1, 2, 7, 7))
        assert ("a", "b") in index.candidate_pairs()

    def test_disjoint_signatures_not_candidates(self):
        index = LSHIndex(bands=2, rows=2)
        index.add("a", (1, 2, 3, 4))
        index.add("b", (5, 6, 7, 8))
        assert index.candidate_pairs() == set()

    def test_similar_sets_become_candidates(self):
        # End-to-end: two 90%-similar sets should collide with b=10, r=8.
        rng = random.Random(2)
        hasher = MinHasher(80)
        index = LSHIndex(bands=10, rows=8)
        base = random_set(rng, 100)
        similar = set(list(base)[:95]) | random_set(rng, 5)
        index.add("x", hasher.signature(base))
        index.add("y", hasher.signature(similar))
        assert ("x", "y") in index.candidate_pairs()

    def test_dissimilar_sets_rarely_candidates(self):
        rng = random.Random(3)
        hasher = MinHasher(80)
        index = LSHIndex(bands=10, rows=8)
        for i in range(30):
            index.add(i, hasher.signature(random_set(rng, 30)))
        assert len(index.candidate_pairs()) == 0


class TestBucketGuard:
    def _collided(self, n, max_bucket_size=None):
        """n items whose signatures all collide in every band."""
        index = LSHIndex(bands=2, rows=2, max_bucket_size=max_bucket_size)
        for i in range(n):
            index.add(f"k{i}", (1, 2, 3, 4))
        return index

    def test_pairs_emitted_once_per_combination(self):
        index = self._collided(4)
        pairs = index.candidate_pairs()
        # One 4-item bucket per band emits C(4,2) distinct pairs.
        assert len(pairs) == 6
        assert all(repr(a) < repr(b) for a, b in pairs)

    def test_oversized_buckets_skipped_and_counted(self):
        index = self._collided(5, max_bucket_size=4)
        assert index.candidate_pairs() == set()
        assert index.skipped_buckets == 2  # one oversized bucket per band

    def test_bucket_at_bound_still_emits(self):
        index = self._collided(4, max_bucket_size=4)
        assert len(index.candidate_pairs()) == 6
        assert index.skipped_buckets == 0

    def test_guard_leaves_small_buckets_alone(self):
        index = LSHIndex(bands=2, rows=2, max_bucket_size=2)
        index.add("a", (1, 2, 3, 4))
        index.add("b", (1, 2, 5, 6))
        index.add("c", (7, 8, 5, 6))
        assert index.candidate_pairs() == {("a", "b"), ("b", "c")}

    def test_skip_count_reset_per_call(self):
        index = self._collided(5, max_bucket_size=4)
        index.candidate_pairs()
        index.candidate_pairs()
        assert index.skipped_buckets == 2  # tallies one pass, not cumulative

    def test_bucket_sizes_histogram_fodder(self):
        index = self._collided(3)
        assert index.bucket_sizes() == [3, 3]  # one bucket per band
        assert index.skipped_buckets == 0

    def test_guard_bound_validated(self):
        with pytest.raises(ValidationError):
            LSHIndex(bands=2, rows=2, max_bucket_size=1)
