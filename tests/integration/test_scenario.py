"""Integration tests for the end-to-end scenario pipeline."""

import json
from pathlib import Path

import pytest

from repro.experiments.cache import scenario_fingerprint
from repro.experiments.scenario import PaperScenario, ScenarioConfig, config_from_canonical
from repro.honeypot.deployment import DeploymentConfig
from repro.util.validation import ValidationError


class TestScenarioConfig:
    def test_defaults_match_paper_setup(self):
        config = ScenarioConfig()
        assert config.n_weeks == 74
        assert config.deployment.n_networks == 30
        assert config.deployment.sensors_per_network == 5
        assert config.invariant_policy.min_instances == 10
        assert config.clustering.threshold == 0.7

    def test_validation(self):
        with pytest.raises(ValidationError):
            ScenarioConfig(n_weeks=1)
        with pytest.raises(ValidationError):
            ScenarioConfig(scale=0)


class TestStoredConfigReplay:
    REFERENCE = Path(__file__).resolve().parents[2] / "results" / "runs" / "reference.json"

    def test_schema6_config_with_retired_columnar_field_replays(self):
        manifest = json.loads(self.REFERENCE.read_text(encoding="utf-8"))
        assert manifest["schema"] == 6
        # Older schema-6 manifests carry the retired ``columnar`` field;
        # the loader drops it without moving the semantic fingerprint.
        stored = {**manifest["config"], "columnar": True}
        for payload in (manifest["config"], stored):
            config = config_from_canonical(payload)
            assert not hasattr(config, "columnar")
            assert scenario_fingerprint(manifest["seed"], config) == manifest["fingerprint"]


class TestScenarioRun:
    def test_headline_keys(self, small_run):
        headline = small_run.headline()
        assert set(headline) == {
            "events",
            "samples_collected",
            "samples_executed",
            "e_clusters",
            "p_clusters",
            "m_clusters",
            "b_clusters",
            "size1_b_clusters",
        }

    def test_artifact_consistency(self, small_run):
        assert small_run.anubis.n_reports == len(small_run.dataset.valid_samples())
        assert small_run.virustotal.n_scanned == small_run.dataset.n_samples
        assert set(small_run.bclusters.assignment) == {
            r.md5 for r in small_run.dataset.valid_samples()
        }

    def test_all_landscape_shapes_present(self, small_run):
        families = {
            e.ground_truth.family for e in small_run.dataset if e.ground_truth
        }
        assert "allaple" in families
        assert "iliketay" in families
        assert any(f.startswith("ircbot") for f in families)
        assert any(f.startswith("misc") for f in families)

    def test_deterministic_given_seed(self):
        config = ScenarioConfig(
            n_weeks=12,
            scale=0.05,
            deployment=DeploymentConfig(n_networks=4, sensors_per_network=2),
        )
        a = PaperScenario(seed=7, config=config).run()
        b = PaperScenario(seed=7, config=config).run()
        assert a.headline() == b.headline()
        assert [e.timestamp for e in a.dataset] == [e.timestamp for e in b.dataset]
        assert a.bclusters.sizes() == b.bclusters.sizes()

    def test_seed_changes_outcome(self):
        config = ScenarioConfig(
            n_weeks=12,
            scale=0.05,
            deployment=DeploymentConfig(n_networks=4, sensors_per_network=2),
        )
        a = PaperScenario(seed=7, config=config).run()
        b = PaperScenario(seed=8, config=config).run()
        assert [e.timestamp for e in a.dataset] != [e.timestamp for e in b.dataset]


class TestDatasetRoundTripThroughAnalysis:
    def test_saved_dataset_reclusters_identically(self, small_run, tmp_path):
        from repro.core.epm import EPMClustering
        from repro.egpm.dataset import SGNetDataset

        path = tmp_path / "events.jsonl"
        small_run.dataset.save_jsonl(path)
        reloaded = SGNetDataset.load_jsonl(path)
        epm = EPMClustering(policy=small_run.config.invariant_policy).fit(reloaded)
        assert epm.counts() == small_run.epm.counts()
        assert epm.mu.sizes() == small_run.epm.mu.sizes()
