"""Tests for dimension-level cluster bookkeeping."""

from repro.core.classifier import ClusterInfo, DimensionClustering
from repro.core.features import Dimension
from repro.core.invariants import InvariantPolicy, discover_invariants
from repro.core.patterns import WILDCARD, PatternSet

LOOSE = InvariantPolicy(min_instances=2, min_sources=1, min_sensors=1)


def build_clustering(instances):
    """instances: dict event_id -> tuple."""
    observations = [(v, 0, 0) for v in instances.values()]
    names = [f"f{i}" for i in range(len(next(iter(instances.values()))))]
    invariants = discover_invariants(observations, names, LOOSE)
    patterns = PatternSet.discover(instances.values(), invariants)
    return DimensionClustering(
        dimension=Dimension.MU,
        feature_names=names,
        invariants=invariants,
        pattern_set=patterns,
        instances=instances,
    )


class TestDimensionClustering:
    def test_groups_by_pattern(self):
        clustering = build_clustering(
            {0: ("a", "x"), 1: ("a", "x"), 2: ("b", "y"), 3: ("b", "y"), 4: ("b", "y")}
        )
        assert clustering.n_clusters == 2
        assert clustering.assignment[2] == clustering.assignment[3]
        assert clustering.assignment[0] != clustering.assignment[2]

    def test_id_zero_is_biggest(self):
        clustering = build_clustering(
            {0: ("a", "x"), 1: ("a", "x"), 2: ("b", "y"), 3: ("b", "y"), 4: ("b", "y")}
        )
        assert clustering.clusters[0].size == 3

    def test_event_ids_sorted(self):
        clustering = build_clustering({5: ("a", "x"), 2: ("a", "x"), 9: ("a", "x")})
        assert clustering.clusters[0].event_ids == [2, 5, 9]

    def test_cluster_of_unknown_event(self):
        clustering = build_clustering({0: ("a", "x"), 1: ("a", "x")})
        assert clustering.cluster_of(999) is None

    def test_cluster_of_pattern(self):
        clustering = build_clustering({0: ("a", "x"), 1: ("a", "x")})
        cid = clustering.cluster_of_pattern(("a", "x"))
        assert cid == 0
        assert clustering.cluster_of_pattern(("zz", "zz")) is None

    def test_wildcard_in_description(self):
        clustering = build_clustering(
            {i: ("a", f"rnd{i}") for i in range(5)}
        )
        assert "f1=*" in clustering.clusters[0].describe(clustering.feature_names)


class TestClusterInfo:
    def test_size(self):
        info = ClusterInfo(cluster_id=0, pattern=("a",), event_ids=[1, 2])
        assert info.size == 2

    def test_describe(self):
        info = ClusterInfo(cluster_id=0, pattern=(WILDCARD, 5), event_ids=[])
        assert info.describe(["x", "y"]) == "{x=*, y=5}"
