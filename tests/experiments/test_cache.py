"""The scenario artifact cache: fingerprints, round-trips, eviction."""

import pickle
import time

import pytest

from repro.experiments.cache import (
    RECORD_FIELDS,
    ScenarioCache,
    StageStore,
    _write_entry,
    cached_run,
    scenario_fingerprint,
    stage_fingerprints,
)
from repro.experiments.scenario import PaperScenario, ScenarioConfig
from repro.experiments.stages import RUN_KEYS
from repro.honeypot.deployment import DeploymentConfig
from repro.sandbox.execution import SandboxConfig

TINY = ScenarioConfig(
    n_weeks=10,
    scale=0.08,
    deployment=DeploymentConfig(n_networks=6, sensors_per_network=2),
)


class TestFingerprint:
    def test_stable_across_equal_configs(self):
        again = ScenarioConfig(
            n_weeks=10,
            scale=0.08,
            deployment=DeploymentConfig(n_networks=6, sensors_per_network=2),
        )
        assert scenario_fingerprint(1, TINY) == scenario_fingerprint(1, again)

    def test_default_config_implied(self):
        assert scenario_fingerprint(1) == scenario_fingerprint(1, ScenarioConfig())

    def test_seed_sensitive(self):
        assert scenario_fingerprint(1, TINY) != scenario_fingerprint(2, TINY)

    def test_semantic_config_sensitive(self):
        for other in (
            ScenarioConfig(n_weeks=11, scale=TINY.scale, deployment=TINY.deployment),
            ScenarioConfig(n_weeks=10, scale=0.09, deployment=TINY.deployment),
            ScenarioConfig(
                n_weeks=10,
                scale=0.08,
                deployment=TINY.deployment,
                sandbox=SandboxConfig(noise_multiplier=2.0),
            ),
        ):
            assert scenario_fingerprint(1, TINY) != scenario_fingerprint(1, other)

    def test_execution_knobs_do_not_change_the_key(self):
        observed = ScenarioConfig(
            n_weeks=10,
            scale=0.08,
            deployment=TINY.deployment,
            events="e.jsonl",
            progress=True,
            windows=0,
        )
        assert scenario_fingerprint(1, TINY) == scenario_fingerprint(1, observed)

    def test_hex_sha256_shape(self):
        fingerprint = scenario_fingerprint(1, TINY)
        assert len(fingerprint) == 64
        assert int(fingerprint, 16) >= 0


class TestScenarioCache:
    """Run records over one class-wide stage store holding ``built``'s
    stage entries; each test keeps its records in its own directory."""

    @pytest.fixture(scope="class")
    def stages(self, tmp_path_factory):
        return StageStore(tmp_path_factory.mktemp("stages"))

    @pytest.fixture(scope="class")
    def built(self, stages):
        return PaperScenario(seed=11, config=TINY).run(stage_store=stages)

    @pytest.fixture
    def cache(self, tmp_path, stages):
        return ScenarioCache(tmp_path, stages)

    def test_miss_on_empty_cache(self, tmp_path):
        cache = ScenarioCache(tmp_path)
        assert cache.load(11, TINY) is None
        assert (cache.hits, cache.misses) == (0, 1)

    def test_round_trip_returns_equal_run(self, cache, built):
        cache.store(built)
        loaded = cache.load(11, TINY)
        assert loaded is not None
        assert loaded.headline() == built.headline()
        assert loaded.bclusters.assignment == built.bclusters.assignment
        assert loaded.bclusters.clusters == built.bclusters.clusters
        for event in built.dataset.events:
            assert loaded.epm.coordinates(event.event_id) == built.epm.coordinates(
                event.event_id
            )
        assert cache.hits == 1

    def test_config_change_misses(self, cache, built):
        cache.store(built)
        other = ScenarioConfig(
            n_weeks=12, scale=TINY.scale, deployment=TINY.deployment
        )
        assert cache.load(11, other) is None
        assert cache.load(12, TINY) is None

    def test_execution_knob_change_hits(self, cache, built):
        cache.store(built)
        observed = ScenarioConfig(
            n_weeks=10,
            scale=0.08,
            deployment=TINY.deployment,
            progress=True,
            windows=0,
        )
        assert cache.load(11, observed) is not None

    def test_corrupt_entry_is_evicted_as_miss(self, cache, built):
        path = cache.store(built)
        path.write_bytes(b"not a pickle")
        assert cache.load(11, TINY) is None
        assert not path.exists()

    def test_non_scenario_pickle_is_evicted(self, cache, built):
        path = cache.path_for(11, TINY)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(pickle.dumps({"not": "a run"}))
        assert cache.load(11, TINY) is None
        assert not path.exists()

    def test_record_with_a_valid_digest_but_wrong_fields_is_evicted(self, cache):
        path = cache.path_for(11, TINY)
        path.parent.mkdir(parents=True, exist_ok=True)
        _write_entry(path, {"not": "a run"})
        assert cache.load(11, TINY) is None
        assert not path.exists()

    def test_store_refuses_a_run_built_without_a_stage_store(self, cache):
        with pytest.raises(ValueError, match="stage store"):
            cache.store(PaperScenario(seed=11, config=TINY).run())

    def test_record_is_small_and_holds_no_artifact(self, cache, built):
        path = cache.store(built)
        assert path.suffix == ".run"
        assert path.stat().st_size < 64 * 1024
        assert set(RUN_KEYS).isdisjoint(RECORD_FIELDS)

    def test_missing_stage_entry_is_a_miss_that_keeps_the_record(
        self, tmp_path, built
    ):
        stages = StageStore(tmp_path / "stages")
        cache = ScenarioCache(tmp_path, stages)
        run = cache.get_or_run(PaperScenario(seed=11, config=TINY))
        fingerprint = stage_fingerprints(11, TINY)["epm"]
        stages.path_for("epm", fingerprint).unlink()
        assert cache.load(11, TINY) is None
        assert cache.path_for(11, TINY).exists()
        again = cache.get_or_run(PaperScenario(seed=11, config=TINY))
        assert again.stage_cache["epm"] == "miss"
        assert again.manifest.artifact_digests == run.manifest.artifact_digests
        assert cache.load(11, TINY) is not None

    def test_clear_removes_entries(self, cache, built):
        cache.store(built)
        assert cache.clear() == 1
        assert cache.load(11, TINY) is None

    def test_get_or_run_builds_once_then_hits(self, tmp_path):
        cache = ScenarioCache(tmp_path)
        first = cache.get_or_run(PaperScenario(seed=11, config=TINY))
        second = cache.get_or_run(PaperScenario(seed=11, config=TINY))
        assert (cache.hits, cache.misses) == (1, 1)
        assert second.headline() == first.headline()

    def test_cached_run_convenience(self, tmp_path):
        cache = ScenarioCache(tmp_path)
        run = cached_run(11, TINY, cache=cache)
        again = cached_run(11, TINY, cache=cache)
        assert again.headline() == run.headline()
        assert cache.hits == 1

    def test_warm_load_is_much_faster_than_rebuild(self, tmp_path):
        cache = ScenarioCache(tmp_path)
        config = ScenarioConfig(
            n_weeks=20,
            scale=0.15,
            deployment=DeploymentConfig(n_networks=10, sensors_per_network=3),
        )
        started = time.perf_counter()
        cache.get_or_run(PaperScenario(seed=11, config=config))
        build_seconds = time.perf_counter() - started

        # Best of three: a single load can eat a GC pause or a cold
        # page under full-suite load; the claim is about the mechanism,
        # not one sample.
        load_seconds = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            assert cache.load(11, config) is not None
            load_seconds = min(load_seconds, time.perf_counter() - started)
        assert load_seconds * 10 <= build_seconds
