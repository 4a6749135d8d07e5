"""Integration tests for the end-to-end scenario pipeline."""

import json
from pathlib import Path

import pytest

from repro.experiments.cache import scenario_fingerprint
from repro.experiments.scenario import PaperScenario, ScenarioConfig, config_from_canonical
from repro.honeypot.deployment import DeploymentConfig
from repro.util.validation import ValidationError

from tests.helpers import load_jsonl


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

    def test_retired_executor_fields_are_rejected(self):
        with pytest.raises(TypeError):
            ScenarioConfig(executor="serial")
        with pytest.raises(TypeError):
            ScenarioConfig(jobs=2)


class TestStoredConfigReplay:
    """A config as older manifests stored it replays to the same run.

    Manifests up to schema 7 stored ``ScenarioConfig`` fields that are
    gone now.  Those files are no longer readable, but a stored config
    may still be fed to :func:`config_from_canonical`, so each test
    injects retired fields into the committed reference's config and
    checks that the loader drops them without moving the fingerprint.
    """

    REFERENCE = Path(__file__).resolve().parents[2] / "results" / "runs" / "reference.json"

    def _replays(self, retired: dict) -> None:
        """Inject ``retired`` (dotted keys reach into sub-configs) and replay."""
        manifest = json.loads(self.REFERENCE.read_text(encoding="utf-8"))
        stored = json.loads(json.dumps(manifest["config"]))
        for key, value in retired.items():
            *parents, name = key.split(".")
            target = stored
            for part in parents:
                target = target[part]
            assert name not in target
            target[name] = value
        for payload in (manifest["config"], stored):
            config = config_from_canonical(payload)
            for key in retired:
                *parents, name = key.split(".")
                owner = config
                for part in parents:
                    owner = getattr(owner, part)
                assert not hasattr(owner, name)
            assert scenario_fingerprint(manifest["seed"], config) == manifest["fingerprint"]

    def test_schema6_config_with_retired_columnar_field_replays(self):
        # the batch-path switch and the sharded observe knob
        self._replays({"columnar": True, "shards": 0})

    def test_schema6_reference_with_retired_telemetry_knobs_replays(self):
        import dataclasses

        # the bounded event transports and the opt-in span probe
        retired = {"ring": 0, "events_max_bytes": None, "events_backups": 1, "profile": False}
        self._replays(retired)
        manifest = json.loads(self.REFERENCE.read_text(encoding="utf-8"))
        assert len(dataclasses.fields(config_from_canonical(manifest["config"]))) == 9

    def test_stored_config_with_retired_executor_fields_replays(self):
        self._replays({"executor": "process", "jobs": 8})

    def test_stored_config_with_retired_minhash_backend_replays(self):
        # the 31-bit numpy MinHash family's switch
        self._replays({"clustering.minhash_backend": "numpy"})


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
        assert all("av_labels" in r.enrichment for r in small_run.dataset.samples.values())
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

        path = tmp_path / "events.jsonl"
        small_run.dataset.save_jsonl(path)
        reloaded = load_jsonl(path)
        epm = EPMClustering(policy=small_run.config.invariant_policy).fit(reloaded)
        assert epm.counts() == small_run.epm.counts()
        assert epm.mu.sizes() == small_run.epm.mu.sizes()
