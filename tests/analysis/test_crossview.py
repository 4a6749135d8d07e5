"""Tests for the M-vs-B cross-view and anomaly detection (§4.2)."""

import pytest

from repro.analysis.crossview import CrossView, heal_singletons


@pytest.fixture(scope="module")
def crossview(small_run):
    return CrossView(small_run.dataset, small_run.epm, small_run.bclusters)


class TestJointView:
    def test_joint_samples_are_executed_samples(self, small_run, crossview):
        assert len(crossview.joint_samples) == small_run.anubis.n_reports

    def test_contingency_sums_to_joint_samples(self, crossview):
        table = crossview._m_to_b.values()
        assert sum(sum(bs.values()) for bs in table) == len(crossview.joint_samples)

    def test_b_to_m_and_m_to_b_consistent(self, crossview):
        total_one_way = sum(
            sum(ms.values()) for ms in crossview._b_to_m.values()
        )
        total_other = sum(sum(bs.values()) for bs in crossview._m_to_b.values())
        assert total_one_way == total_other

    def test_m_clusters_of_b(self, small_run, crossview):
        biggest_b = 0
        ms = crossview.m_clusters_of_b(biggest_b)
        assert len(ms) > 1  # the worm B-cluster spans many patches


class TestSingletonDetection:
    def test_singletons_found(self, crossview):
        assert len(crossview.singleton_b_clusters()) > 20

    def test_anomalies_dominate_singletons(self, crossview):
        # The paper: most size-1 B-clusters are artifacts, not rarities.
        summary = crossview.summary()
        assert summary["singleton_anomalies"] > summary["rare_singletons"]

    def test_anomaly_fields_consistent(self, crossview):
        for anomaly in crossview.singleton_anomalies()[:50]:
            assert anomaly.m_cluster_size >= 2
            assert anomaly.dominant_b_size >= 1
            assert anomaly.dominant_b_cluster != anomaly.b_cluster
            assert crossview.b_of_sample[anomaly.md5] == anomaly.b_cluster

    def test_rare_singletons_have_unique_m(self, crossview):
        for md5 in crossview.rare_singletons():
            m = crossview.m_of_sample[md5]
            assert crossview._m_sample_counts[m] == 1

    def test_anomalies_are_mostly_worm_samples(self, small_run, crossview):
        # Ground-truth check of the paper's Figure 4 reading: the
        # misclassified singletons overwhelmingly come from the
        # polymorphic worm population.
        anomalies = crossview.singleton_anomalies()
        families = [
            small_run.dataset.samples[a.md5].ground_truth.family for a in anomalies
        ]
        share = families.count("allaple") / len(families)
        assert share > 0.8


class TestEnvironmentSplits:
    def test_splits_found(self, crossview):
        assert crossview.environment_splits()

    def test_iliketay_is_split(self, small_run, crossview):
        # The M-cluster 13 analogue must be spread over several
        # B-clusters (the environment changed under it during the
        # observation period).
        from collections import Counter

        iliketay_ms = Counter(
            crossview.m_of_sample[md5]
            for md5, record in small_run.dataset.samples.items()
            if record.ground_truth is not None
            and record.ground_truth.family == "iliketay"
            and not record.observable.corrupted
            and md5 in crossview.m_of_sample
        )
        assert iliketay_ms
        main_m = iliketay_ms.most_common(1)[0][0]
        b_counts = crossview.b_clusters_of_m(main_m)
        assert len(b_counts) >= 2

    def test_split_counts_ordered(self, crossview):
        for split in crossview.environment_splits():
            counts = list(split.samples_per_b)
            assert counts == sorted(counts, reverse=True)


class TestHealing:
    def test_healing_reduces_singletons(self, small_run):
        crossview = CrossView(small_run.dataset, small_run.epm, small_run.bclusters)
        before = len(crossview.singleton_b_clusters())
        healed, n_rerun = heal_singletons(
            crossview, small_run.anubis, small_run.dataset,
            config=small_run.config.clustering,
        )
        healed_view = CrossView(small_run.dataset, small_run.epm, healed)
        after = len(healed_view.singleton_b_clusters())
        assert n_rerun > 0
        assert after < before * 0.5

    def test_healing_preserves_sample_universe(self, small_run):
        crossview = CrossView(small_run.dataset, small_run.epm, small_run.bclusters)
        healed, _ = heal_singletons(
            crossview, small_run.anubis, small_run.dataset,
            config=small_run.config.clustering,
        )
        assert set(healed.assignment) == set(small_run.bclusters.assignment)
