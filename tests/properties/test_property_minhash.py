"""Hypothesis property tests for MinHash/LSH and clustering equivalence."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sandbox.behavior import BehaviorProfile
from repro.sandbox.clustering import (
    ClusteringConfig,
    _verify_pairs_vectorized,
    cluster_exact,
    cluster_lsh,
)
from repro.sandbox.lsh import MinHasher
from repro.util.stats import jaccard

feature_sets = st.sets(st.integers(min_value=0, max_value=10**12), max_size=60)


class TestMinHashProperties:
    @given(feature_sets)
    @settings(max_examples=60)
    def test_identical_sets_estimate_one(self, items):
        hasher = MinHasher(32)
        sig = hasher.signature(items)
        assert hasher.estimate_similarity(sig, sig) == 1.0

    @given(feature_sets, feature_sets)
    @settings(max_examples=60)
    def test_estimate_symmetric(self, a, b):
        hasher = MinHasher(32)
        sig_a, sig_b = hasher.signature(a), hasher.signature(b)
        assert hasher.estimate_similarity(sig_a, sig_b) == hasher.estimate_similarity(
            sig_b, sig_a
        )

    @given(feature_sets, feature_sets)
    @settings(max_examples=40)
    def test_estimate_tracks_jaccard(self, a, b):
        if not a or not b:
            return
        hasher = MinHasher(256)
        estimate = hasher.estimate_similarity(
            hasher.signature(a), hasher.signature(b)
        )
        true = jaccard(a, b)
        assert abs(estimate - true) < 0.25  # 256 hashes: s.e. <= ~0.031

    @given(feature_sets)
    @settings(max_examples=40)
    def test_signature_permutation_invariant(self, items):
        hasher = MinHasher(16)
        assert hasher.signature(items) == hasher.signature(set(sorted(items)))


def _profiles_from(label_sets):
    profiles = {}
    for i, labels in enumerate(label_sets):
        profiles[f"s{i}"] = BehaviorProfile.from_features(
            ("file", f"obj{label}", "create") for label in labels
        )
    return profiles


label_set = st.sets(st.integers(min_value=0, max_value=25), min_size=1, max_size=20)


class TestClusteringEquivalence:
    @given(st.lists(label_set, min_size=1, max_size=25))
    @settings(max_examples=40, deadline=None)
    def test_lsh_partition_refines_exact_partition(self, label_sets):
        """Every LSH-found cluster sits inside one exact cluster.

        LSH can only *miss* similar pairs (false negatives before the
        exact check), so its single-linkage components must refine the
        exact ones — never merge across them.
        """
        profiles = _profiles_from(label_sets)
        config = ClusteringConfig(threshold=0.7)
        exact = cluster_exact(profiles, config)
        lsh = cluster_lsh(profiles, config)
        for members in lsh.clusters.values():
            exact_ids = {exact.assignment[m] for m in members}
            assert len(exact_ids) == 1

    @given(st.lists(label_set, min_size=1, max_size=25))
    @settings(max_examples=40, deadline=None)
    def test_identical_profiles_always_together(self, label_sets):
        profiles = _profiles_from(label_sets)
        result = cluster_lsh(profiles)
        by_features = {}
        for key, profile in profiles.items():
            by_features.setdefault(profile.features, []).append(key)
        for members in by_features.values():
            assert len({result.assignment[m] for m in members}) == 1

    @given(st.lists(label_set, min_size=1, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_assignment_covers_all_samples(self, label_sets):
        profiles = _profiles_from(label_sets)
        result = cluster_lsh(profiles)
        assert set(result.assignment) == set(profiles)
        assert sum(result.sizes().values()) == len(profiles)

    @given(st.lists(label_set, min_size=2, max_size=20), st.data())
    @settings(max_examples=40, deadline=None)
    def test_threshold_monotonicity(self, label_sets, data):
        # Lowering the threshold can only merge clusters, never split.
        profiles = _profiles_from(label_sets)
        high = cluster_exact(profiles, ClusteringConfig(threshold=0.8))
        low = cluster_exact(profiles, ClusteringConfig(threshold=0.5))
        assert low.n_clusters <= high.n_clusters
        for members in high.clusters.values():
            assert len({low.assignment[m] for m in members}) == 1

    @given(
        st.lists(label_set | st.just(set()), min_size=2, max_size=15),
        st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_batch_verdicts_match_per_pair_jaccard(self, label_sets, threshold):
        """The packed-bit verifier equals ``jaccard(a, b) >= t`` on every pair."""
        feature_sets = [
            {("file", f"obj{label}", "create") for label in labels}
            for labels in label_sets
        ]
        n = len(feature_sets)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        verdicts = _verify_pairs_vectorized(feature_sets, pairs, threshold)
        assert verdicts.tolist() == [
            jaccard(feature_sets[i], feature_sets[j]) >= threshold for i, j in pairs
        ]
