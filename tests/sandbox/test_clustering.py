"""Tests for behaviour clustering (LSH + exact baseline)."""

import random

import pytest

from repro.sandbox.behavior import BehaviorProfile
from repro.sandbox.clustering import (
    BehaviorClustering,
    ClusteringConfig,
    cluster_exact,
    cluster_lsh,
)


def profile(*names):
    return BehaviorProfile.from_features(("file", n, "create") for n in names)


def family_profiles(tag, n_samples, core=20, own=2):
    """n_samples profiles sharing `core` features, each with `own` extras."""
    profiles = {}
    for i in range(n_samples):
        features = [("file", f"{tag}-core-{j}", "create") for j in range(core)]
        features += [("mutex", f"{tag}-{i}-{j}", "create") for j in range(own)]
        profiles[f"{tag}-{i}"] = BehaviorProfile.from_features(features)
    return profiles


class TestConfig:
    def test_n_hashes(self):
        assert ClusteringConfig(bands=10, rows=8).n_hashes == 80

    def test_threshold_validated(self):
        with pytest.raises(Exception):
            ClusteringConfig(threshold=1.5)


class TestClusterExact:
    def test_identical_profiles_merge(self):
        profiles = {"a": profile("x", "y"), "b": profile("x", "y")}
        result = cluster_exact(profiles)
        assert result.n_clusters == 1

    def test_disjoint_profiles_separate(self):
        profiles = {"a": profile("x"), "b": profile("y")}
        assert cluster_exact(profiles).n_clusters == 2

    def test_threshold_respected(self):
        # similarity 2/3 < 0.7 -> separate; >= 0.6 -> together.
        profiles = {"a": profile("1", "2", "3"), "b": profile("1", "2", "4")}
        assert cluster_exact(profiles, ClusteringConfig(threshold=0.7)).n_clusters == 2
        assert cluster_exact(profiles, ClusteringConfig(threshold=0.5)).n_clusters == 1

    def test_single_linkage_chains(self):
        # a~b and b~c but a!~c: single linkage still merges all three.
        profiles = {
            "a": profile(*"12345678"),
            "b": profile(*"12345679"),
            "c": profile(*"1234567a"),
        }
        result = cluster_exact(profiles, ClusteringConfig(threshold=0.7))
        assert result.n_clusters == 1

    def test_family_structure(self):
        profiles = {}
        profiles.update(family_profiles("alpha", 8))
        profiles.update(family_profiles("beta", 5))
        result = cluster_exact(profiles)
        assert result.n_clusters == 2
        assert sorted(result.sizes().values(), reverse=True) == [8, 5]


class TestClusterLsh:
    def test_agrees_with_exact_on_family_structure(self):
        profiles = {}
        profiles.update(family_profiles("alpha", 10))
        profiles.update(family_profiles("beta", 6))
        profiles.update(family_profiles("gamma", 3))
        exact = cluster_exact(profiles)
        lsh = cluster_lsh(profiles)
        assert lsh.sizes() == exact.sizes()
        # Same partitioning, not just same sizes:
        for key_a in profiles:
            for key_b in profiles:
                same_exact = exact.assignment[key_a] == exact.assignment[key_b]
                same_lsh = lsh.assignment[key_a] == lsh.assignment[key_b]
                assert same_exact == same_lsh

    def test_far_fewer_comparisons_than_exact(self):
        rng = random.Random(1)
        profiles = {}
        for i in range(120):
            features = [("file", f"{i}-{j}-{rng.random()}", "c") for j in range(15)]
            profiles[str(i)] = BehaviorProfile.from_features(features)
        exact = cluster_exact(profiles)
        lsh = cluster_lsh(profiles)
        assert lsh.n_exact_comparisons < exact.n_exact_comparisons / 10

    def test_duplicate_profiles_precollapsed(self):
        profiles = {f"s{i}": profile("x", "y", "z") for i in range(500)}
        result = cluster_lsh(profiles)
        assert result.n_clusters == 1
        assert result.size_of(0) == 500
        # Dedup means no pairwise comparisons were needed at all.
        assert result.n_exact_comparisons == 0

    def test_empty_profiles_cluster_together(self):
        profiles = {"a": profile(), "b": profile()}
        assert cluster_lsh(profiles).n_clusters == 1


class TestBehaviorClustering:
    def test_ids_dense_and_size_ordered(self):
        assignment = {"a": 7, "b": 7, "c": 9, "d": 7}
        result = BehaviorClustering.from_assignment(assignment)
        assert result.assignment["a"] == 0  # biggest cluster gets id 0
        assert result.assignment["c"] == 1
        assert set(result.clusters) == {0, 1}

    def test_singletons(self):
        assignment = {"a": 1, "b": 1, "c": 2, "d": 3}
        result = BehaviorClustering.from_assignment(assignment)
        singles = result.singletons()
        assert len(singles) == 2
        assert all(result.size_of(s) == 1 for s in singles)

    def test_sizes(self):
        result = BehaviorClustering.from_assignment({"a": 1, "b": 1, "c": 2})
        assert sorted(result.sizes().values(), reverse=True) == [2, 1]

    def test_members_sorted(self):
        result = BehaviorClustering.from_assignment({"z": 1, "a": 1})
        assert result.clusters[0] == ["a", "z"]


class TestSharedJaccardHelper:
    """Both clustering paths go through repro.util.stats.jaccard."""

    def test_empty_profiles_cluster_together_in_both_paths(self):
        # jaccard(set(), set()) == 1.0, so two empty profiles must merge
        # identically in the exact and LSH paths.
        profiles = {"a": profile(), "b": profile(), "c": profile("x", "y", "z")}
        exact = cluster_exact(profiles)
        lsh = cluster_lsh(profiles)
        assert exact.assignment["a"] == exact.assignment["b"]
        assert lsh.assignment["a"] == lsh.assignment["b"]
        assert exact.assignment["c"] != exact.assignment["a"]

    def test_threshold_boundary_agrees_with_helper(self):
        from repro.util.stats import jaccard

        a, b = profile("1", "2", "3", "4", "5", "6", "7"), profile(
            "1", "2", "3", "4", "5", "6", "8"
        )
        similarity = jaccard(set(a.features), set(b.features))
        result = cluster_exact(
            {"a": a, "b": b}, ClusteringConfig(threshold=similarity)
        )
        assert result.assignment["a"] == result.assignment["b"]
        stricter = cluster_exact(
            {"a": a, "b": b}, ClusteringConfig(threshold=similarity + 1e-9)
        )
        assert stricter.assignment["a"] != stricter.assignment["b"]


class TestClusterLshVectorized:
    """The batch clustering path: hash backends, bucket telemetry, guard."""

    def _profiles(self):
        profiles = {}
        for tag in ("alpha", "beta", "gamma"):
            profiles.update(family_profiles(tag, 12))
        profiles["empty-1"] = profile()
        profiles["empty-2"] = profile()
        return profiles

    def test_python_backend_matches_numpy(self):
        # The two backends are different hash families, so signatures
        # and candidate sets differ; on well-separated families (within
        # ~0.83 similar, across disjoint) both find the exact partition.
        profiles = self._profiles()
        exact = cluster_exact(profiles)
        python_backed = cluster_lsh(
            profiles, ClusteringConfig(minhash_backend="python")
        )
        numpy_backed = cluster_lsh(profiles, ClusteringConfig(minhash_backend="numpy"))
        assert python_backed.assignment == exact.assignment
        assert numpy_backed.assignment == exact.assignment

    def test_bucket_metrics_emitted(self):
        from repro.obs import metrics as obs_metrics
        from repro.obs.metrics import MetricsRegistry

        with obs_metrics.use(MetricsRegistry()) as registry:
            cluster_lsh(self._profiles())
        snapshot = registry.snapshot()
        hist = snapshot.histograms["lsh.bucket_size"]
        assert hist["count"] > 0
        # No degenerate buckets here, so the guard skipped nothing —
        # but the counter must exist regardless (schema contract).
        assert snapshot.counter("lsh.buckets_skipped") == 0

    def test_max_bucket_size_guard_applies(self):
        from repro.obs import metrics as obs_metrics
        from repro.obs.metrics import MetricsRegistry

        # 30 near-identical profiles (30 shared features, 1 own) land in
        # the same bucket in most bands -> mega-buckets the guard drops.
        profiles = family_profiles("alpha", 30, core=30, own=1)
        config = ClusteringConfig(max_bucket_size=8)
        with obs_metrics.use(MetricsRegistry()) as registry:
            guarded = cluster_lsh(profiles, config)
        assert registry.snapshot().counter("lsh.buckets_skipped") > 0
        unguarded = cluster_lsh(profiles)
        # Dropping oversized buckets can only reduce candidate pairs.
        assert guarded.n_exact_comparisons < unguarded.n_exact_comparisons
