"""Edge-case and failure-injection tests across the pipeline."""

import pytest

from repro.core.epm import EPMClustering
from repro.egpm.dataset import SGNetDataset
from repro.egpm.events import (
    AttackEvent,
    ExploitObservable,
    MalwareObservable,
)
from repro.net.address import IPv4Address
from repro.sandbox.clustering import cluster_exact, cluster_lsh
from repro.util.validation import ValidationError

from tests.helpers import dataset_from_events, load_jsonl


def _minimal_event(event_id, *, md5=None, source=1, sensor=2):
    malware = None
    if md5 is not None:
        malware = MalwareObservable(
            md5=md5, size=100, magic="data", pe=None, corrupted=True
        )
    return AttackEvent(
        event_id=event_id,
        timestamp=event_id * 100,
        source=IPv4Address(source),
        sensor=IPv4Address(sensor),
        exploit=ExploitObservable(fsm_path_id=1, dst_port=445),
        malware=malware,
    )


class TestEpmDegenerateDatasets:
    def test_single_event(self):
        dataset = dataset_from_events([_minimal_event(0)])
        epm = EPMClustering().fit(dataset)
        assert epm.epsilon.n_clusters == 1
        # Below every invariant threshold: one all-wildcard cluster.
        from repro.core.patterns import WILDCARD

        pattern = epm.epsilon.clusters[0].pattern
        assert all(v is WILDCARD for v in pattern)

    def test_no_payload_dimension(self):
        dataset = dataset_from_events([_minimal_event(i) for i in range(20)])
        epm = EPMClustering().fit(dataset)
        assert epm.pi.n_instances == 0
        assert epm.pi.n_clusters == 0
        assert epm.mu.n_instances == 0

    def test_all_corrupted_samples(self):
        events = [
            _minimal_event(i, md5=f"{i:032x}", source=i % 5, sensor=100 + i % 4)
            for i in range(30)
        ]
        dataset = dataset_from_events(events)
        epm = EPMClustering().fit(dataset)
        assert epm.mu.n_instances == 30
        mapping = epm.m_cluster_of_samples(dataset)
        assert len(mapping) == 30
        # They pool: magic/pe-None are the only shared values.
        assert epm.mu.n_clusters <= 3

    def test_single_source_never_mints_invariants(self):
        events = [
            _minimal_event(i, md5="a" * 32, source=7, sensor=100 + i % 5)
            for i in range(50)
        ]
        dataset = dataset_from_events(events)
        epm = EPMClustering().fit(dataset)
        assert epm.mu.invariants.total_invariants == 0

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValidationError):
            EPMClustering().fit(SGNetDataset())


class TestClusteringDegenerateInputs:
    def test_empty_profiles_mapping(self):
        result = cluster_lsh({})
        assert result.n_clusters == 0
        assert result.assignment == {}

    def test_single_profile(self):
        from repro.sandbox.behavior import BehaviorProfile

        profiles = {"only": BehaviorProfile.from_features([("a", "b", "c")])}
        assert cluster_lsh(profiles).n_clusters == 1
        assert cluster_exact(profiles).n_clusters == 1

    def test_all_empty_profiles(self):
        from repro.sandbox.behavior import BehaviorProfile

        profiles = {f"s{i}": BehaviorProfile.from_features([]) for i in range(5)}
        result = cluster_lsh(profiles)
        assert result.n_clusters == 1  # identical (empty) profiles merge


class TestDatasetEdgeCases:
    def test_save_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        assert SGNetDataset().save_jsonl(path) == 0
        assert len(load_jsonl(path)) == 0

    def test_events_for_sample_on_empty(self):
        assert SGNetDataset().events_for_sample("a" * 32) == []


class TestCrossViewDegenerate:
    def test_no_joint_samples(self):
        from repro.analysis.crossview import CrossView
        from repro.sandbox.clustering import BehaviorClustering

        events = [_minimal_event(i, md5=f"{i:032x}") for i in range(12)]
        dataset = dataset_from_events(events)
        epm = EPMClustering().fit(dataset)
        bclusters = BehaviorClustering.from_assignment({"f" * 32: 0})
        crossview = CrossView(dataset, epm, bclusters)
        assert crossview.joint_samples == []
        assert crossview.singleton_anomalies() == []
        assert crossview.rare_singletons() == []
        assert crossview.environment_splits() == []
