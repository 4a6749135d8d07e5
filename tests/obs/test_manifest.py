"""Run manifests: schema stability, round-trips, digest determinism."""

import json

import pytest

from repro.obs.manifest import MANIFEST_SCHEMA, RunManifest, artifact_digests
from repro.obs.validate import validate_manifest
from repro.util.validation import ValidationError


def _sample(**overrides) -> RunManifest:
    fields = dict(
        fingerprint="ab" * 32,
        seed=2010,
        config={"n_weeks": 74, "scale": 1.0},
        library_version="0.1.0",
        span_tree={"name": "scenario", "seconds": 1.0},
        metrics={"schema": 3, "counters": {}, "gauges": {}, "sketches": {}},
        artifact_digests={"headline": "cd" * 32},
        created_at="2026-01-01T00:00:00Z",
        golden_deviations=[],
    )
    fields.update(overrides)
    return RunManifest(**fields)


class TestRunManifest:
    def test_as_dict_is_the_stable_documented_layout(self):
        payload = _sample().as_dict()
        assert set(payload) == {
            "schema",
            "fingerprint",
            "seed",
            "config",
            "library_version",
            "created_at",
            "span_tree",
            "metrics",
            "artifact_digests",
            "golden_deviations",
            "event_summary",
            "stage_fingerprints",
            "health_summary",
        }
        assert payload["schema"] == MANIFEST_SCHEMA

    def test_json_round_trip(self):
        manifest = _sample()
        rebuilt = RunManifest.from_dict(json.loads(manifest.to_json()))
        assert rebuilt == manifest

    def test_round_trip_with_empty_artifact_set(self):
        manifest = _sample(artifact_digests={})
        rebuilt = RunManifest.from_dict(json.loads(manifest.to_json()))
        assert rebuilt == manifest
        assert rebuilt.artifact_digests == {}

    def test_round_trip_with_labelled_metric_keys(self):
        manifest = _sample(
            metrics={
                "schema": 3,
                "counters": {"epm.observations{dimension=mu}": 12.0},
                "gauges": {"epm.clusters{dimension=epsilon,policy=strict}": 3.0},
                "sketches": {},
            }
        )
        rebuilt = RunManifest.from_dict(json.loads(manifest.to_json()))
        assert rebuilt == manifest
        assert (
            rebuilt.metrics["counters"]["epm.observations{dimension=mu}"] == 12.0
        )

    def test_round_trip_with_unicode_attribute_values(self):
        manifest = _sample(
            span_tree={
                "name": "scenario",
                "seconds": 1.0,
                "attributes": {"note": "拡張 — ünïcode ✓"},
            },
            golden_deviations=["events: expected 14687, measured ∅"],
        )
        rebuilt = RunManifest.from_dict(json.loads(manifest.to_json()))
        assert rebuilt == manifest
        assert rebuilt.span_tree["attributes"]["note"] == "拡張 — ünïcode ✓"

    @pytest.mark.parametrize("schema", [1, 6, 7])
    def test_older_schemas_are_refused(self, schema):
        payload = _sample().as_dict()
        payload["schema"] = schema
        with pytest.raises(ValidationError, match=f"manifest schema {schema} is older"):
            RunManifest.from_dict(payload)

    def test_unknown_schema_rejected(self):
        payload = _sample().as_dict()
        payload["schema"] = 99
        with pytest.raises(ValidationError):
            RunManifest.from_dict(payload)

    def test_content_id_is_stable_and_content_sensitive(self):
        assert _sample().content_id() == _sample().content_id()
        assert _sample().content_id() != _sample(seed=11).content_id()

    def test_write_persists_valid_json(self, tmp_path):
        path = _sample().write(tmp_path / "manifest.json")
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert validate_manifest(payload) == []

    def test_validator_flags_broken_manifests(self):
        payload = _sample().as_dict()
        payload["fingerprint"] = "short"
        payload["artifact_digests"] = {}
        errors = validate_manifest(payload)
        assert any("fingerprint" in error for error in errors)
        assert any("artifact_digests" in error for error in errors)


class TestScenarioManifest:
    def test_run_carries_a_valid_manifest(self, small_run):
        manifest = small_run.manifest
        assert manifest is not None
        assert validate_manifest(manifest.as_dict()) == []

    def test_fingerprint_matches_the_cache_key(self, small_run):
        from repro.experiments.cache import scenario_fingerprint

        assert small_run.manifest.fingerprint == scenario_fingerprint(
            small_run.seed, small_run.config
        )

    def test_span_tree_mirrors_the_trace(self, small_run):
        span_tree = small_run.manifest.span_tree
        assert span_tree["name"] == "scenario"
        stages = {child["name"] for child in span_tree["children"]}
        assert stages == {
            "deployment",
            "catalog",
            "observe",
            "enrich",
            "epm",
            "bgraph",
            "bcluster",
            "windows",
        }

    def test_every_stage_span_carries_cpu_and_rss(self, small_run):
        """Default runs profile every span: no flag asks for it."""
        from repro.obs.profile import PROFILE_ATTRS

        assert small_run.manifest.schema == MANIFEST_SCHEMA == 8
        for child in small_run.manifest.span_tree["children"]:
            assert set(PROFILE_ATTRS) <= set(child["attributes"]), child["name"]

    def test_run_emits_no_executor_metrics(self, small_run):
        names = small_run.metrics.names()
        assert "sandbox.batch_size" in names
        assert not [n for n in names if n.startswith(("executor.", "worker."))]

    def test_artifact_digests_are_deterministic_per_run(self, small_run):
        assert artifact_digests(small_run) == artifact_digests(small_run)

    def test_artifact_digests_track_the_artifacts(self, small_run):
        digests = small_run.manifest.artifact_digests
        assert set(digests) == {
            "dataset.events",
            "epm.clusters",
            "bclusters.assignment",
            "headline",
        }
        assert digests == artifact_digests(small_run)

    def test_stage_spans_carry_their_output_digests(self, small_run):
        tree = small_run.manifest.span_tree
        digests = small_run.manifest.artifact_digests
        by_name = {child["name"]: child for child in tree["children"]}
        assert tree["attributes"]["output_digest"] == digests["headline"]
        assert (
            by_name["observe"]["attributes"]["output_digest"]
            == digests["dataset.events"]
        )
        assert (
            by_name["epm"]["attributes"]["output_digest"]
            == digests["epm.clusters"]
        )
        assert (
            by_name["bcluster"]["attributes"]["output_digest"]
            == digests["bclusters.assignment"]
        )

    def test_manifest_self_reports_golden_deviations(self, small_run):
        # The reduced run deviates from the full-scale golden headline
        # on every key — the manifest must say so itself.
        from repro.experiments.regression import check_headline

        assert small_run.manifest.golden_deviations == check_headline(
            small_run.headline()
        )
        assert small_run.manifest.golden_deviations  # reduced scale deviates

    def test_manifest_created_at_uses_the_injectable_clock(self, small_run):
        assert small_run.manifest.created_at  # stamped at build time
