"""Hypothesis property tests for MinHash/LSH and clustering equivalence."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sandbox.behavior import BehaviorProfile
from repro.sandbox.clustering import (
    ClusteringConfig,
    _pair_similarities,
    cluster_exact,
    cluster_lsh,
    cut,
    similarity_graph,
)
from repro.sandbox.lsh import MinHasher
from repro.util.stats import jaccard

feature_sets = st.sets(st.integers(min_value=0, max_value=10**12), max_size=60)


def _agreement(sig_a, sig_b) -> float:
    """Share of signature positions that agree: the MinHash Jaccard estimate."""
    return sum(x == y for x, y in zip(sig_a, sig_b)) / len(sig_a)


class TestMinHashProperties:
    @given(feature_sets)
    @settings(max_examples=60)
    def test_identical_sets_estimate_one(self, items):
        hasher = MinHasher(32)
        sig = hasher.signature(items)
        assert _agreement(sig, sig) == 1.0

    @given(feature_sets, feature_sets)
    @settings(max_examples=60)
    def test_estimate_symmetric(self, a, b):
        hasher = MinHasher(32)
        sig_a, sig_b = hasher.signature(a), hasher.signature(b)
        assert _agreement(sig_a, sig_b) == _agreement(sig_b, sig_a)

    @given(feature_sets, feature_sets)
    @settings(max_examples=40)
    def test_estimate_tracks_jaccard(self, a, b):
        if not a or not b:
            return
        hasher = MinHasher(256)
        estimate = _agreement(hasher.signature(a), hasher.signature(b))
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
        """The packed-bit kernel's similarity is ``jaccard(a, b)`` exactly,
        so its verdict at any ``t`` is the scalar ``jaccard(a, b) >= t``."""
        feature_sets = [
            {("file", f"obj{label}", "create") for label in labels}
            for labels in label_sets
        ]
        n = len(feature_sets)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        similarity = _pair_similarities(feature_sets, pairs)
        reference = [jaccard(feature_sets[i], feature_sets[j]) for i, j in pairs]
        assert similarity.tolist() == reference
        assert (similarity >= threshold).tolist() == [s >= threshold for s in reference]

    @given(
        st.lists(label_set, min_size=1, max_size=25),
        st.lists(st.integers(min_value=40, max_value=96), min_size=1, max_size=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_one_graph_cut_at_any_threshold_equals_cluster_lsh(
        self, label_sets, percents
    ):
        """The graph is threshold-free: cutting one graph at ``t`` gives
        what a from-scratch :func:`cluster_lsh` at ``t`` gives."""
        profiles = _profiles_from(label_sets)
        graph = similarity_graph(profiles, ClusteringConfig())
        for percent in percents:
            config = ClusteringConfig(threshold=percent / 100)
            via_graph = cut(graph, config.threshold)
            direct = cluster_lsh(profiles, config)
            assert via_graph.assignment == direct.assignment
            assert via_graph.clusters == direct.clusters
            assert via_graph.n_candidate_pairs == direct.n_candidate_pairs
