"""Observability wired through the pipeline: counters, cache, determinism."""

import pytest

from repro.experiments.cache import ScenarioCache, cached_run
from repro.experiments.scenario import PaperScenario, ScenarioConfig
from repro.honeypot.deployment import DeploymentConfig
from repro.obs import metrics as obs_metrics
from repro.obs.events import read_events
from repro.obs.manifest import artifact_digests
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import PROFILE_ATTRS
from repro.obs.validate import (
    REQUIRED_SCENARIO_METRICS,
    validate_manifest,
    validate_metrics,
)

TINY = ScenarioConfig(
    n_weeks=10,
    scale=0.08,
    deployment=DeploymentConfig(n_networks=6, sensors_per_network=2),
)

#: The run the metric checks read: ten weeks over a 10 x 3 deployment.
SMALL = ScenarioConfig(
    n_weeks=10,
    scale=0.08,
    deployment=DeploymentConfig(n_networks=10, sensors_per_network=3),
)


@pytest.fixture(scope="module")
def tiny_run():
    return PaperScenario(seed=7, config=SMALL).run()


class TestScenarioMetrics:
    def test_every_required_metric_is_emitted(self, tiny_run):
        assert REQUIRED_SCENARIO_METRICS <= tiny_run.metrics.names()

    def test_snapshot_conforms_to_the_catalogue(self, tiny_run):
        errors = validate_metrics(
            tiny_run.metrics.as_dict(), require_scenario=True
        )
        assert errors == []

    def test_manifest_conforms(self, tiny_run):
        assert validate_manifest(tiny_run.manifest.as_dict()) == []

    def test_counters_reflect_the_pipeline(self, tiny_run):
        metrics = tiny_run.metrics
        assert metrics.counter("honeypot.events_observed") == len(tiny_run.dataset)
        assert metrics.counter("honeypot.samples_collected") == (
            tiny_run.dataset.n_samples
        )
        assert metrics.total("epm.patterns_discovered") > 0
        assert metrics.total("sandbox.executions") > 0
        for dimension in ("epsilon", "pi", "mu"):
            assert metrics.counter("epm.observations", dimension=dimension) > 0
        assert metrics.gauge(
            "lsh.clusters"
        ) == tiny_run.bclusters.n_clusters

    def test_counters_and_gauges_deterministic_per_seed(self, tiny_run):
        again = PaperScenario(seed=7, config=SMALL).run()
        # Counters and gauges are pure functions of the seed; only the
        # latency sketches may differ between runs.
        assert again.metrics.counters == tiny_run.metrics.counters
        assert again.metrics.gauges == tiny_run.metrics.gauges

    def test_disabled_observability_leaves_artifacts_untouched(self, tiny_run):
        with obs_metrics.use(MetricsRegistry()):
            recorded = PaperScenario(seed=7, config=SMALL).run()
        assert artifact_digests(recorded) == artifact_digests(tiny_run)

    def test_telemetry_knobs_change_no_artifact(self, tiny_run, tmp_path, capsys):
        # The event file and progress lines on, window telemetry off:
        # execution-only knobs, so the artifacts and the fingerprint
        # stay the plain run's.
        config = ScenarioConfig(
            n_weeks=10,
            scale=0.08,
            deployment=DeploymentConfig(n_networks=10, sensors_per_network=3),
            events=str(tmp_path / "events.jsonl"),
            progress=True,
            windows=0,
        )
        run = PaperScenario(seed=7, config=config).run()
        assert run.headline() == tiny_run.headline()
        assert run.manifest.artifact_digests == tiny_run.manifest.artifact_digests
        assert run.manifest.fingerprint == tiny_run.manifest.fingerprint
        assert (
            run.metrics.sketches["lsh.bucket_size"]
            == tiny_run.metrics.sketches["lsh.bucket_size"]
        )
        # Every sink really ran, and the span probe ran unasked.
        for depth, span in run.trace.walk():
            if depth == 1:
                assert set(PROFILE_ATTRS) <= set(span.attributes), span.name
        assert "[progress] run finished" in capsys.readouterr().err
        log = read_events(tmp_path / "events.jsonl")
        assert log[0].kind == "run.start"
        assert "run.finish" in {event.kind for event in log}
        assert run.manifest.event_summary == {
            kind: sum(1 for event in log if event.kind == kind)
            for kind in {event.kind for event in log}
        }
        assert validate_manifest(run.manifest.as_dict()) == []


class TestCacheMetrics:
    def test_miss_then_hit_across_two_runs(self, tmp_path):
        cache = ScenarioCache(tmp_path)
        registry = MetricsRegistry()
        with obs_metrics.use(registry):
            cached_run(7, TINY, cache=cache)
        first = registry.snapshot()
        assert first.counter("cache.miss") == 1
        assert first.counter("cache.hit") == 0
        assert first.counter("cache.store") == 1

        with obs_metrics.use(registry):
            cached_run(7, TINY, cache=cache)
        second = registry.snapshot()
        assert second.counter("cache.miss") == 1
        assert second.counter("cache.hit") == 1
        assert second.counter("cache.store") == 1

    def test_corrupt_entry_counts_an_eviction(self, tmp_path):
        cache = ScenarioCache(tmp_path)
        registry = MetricsRegistry()
        with obs_metrics.use(registry):
            run = cached_run(7, TINY, cache=cache)
            cache.path_for(run.seed, TINY).write_bytes(b"garbage")
            cache.load(run.seed, TINY)
        snapshot = registry.snapshot()
        assert snapshot.counter("cache.evict") == 1
        assert snapshot.counter("cache.miss") == 2
