"""The incremental stage DAG: fingerprints, invalidation matrix, replay.

The heart of this module is the parametrised invalidation matrix: for
every :class:`~repro.experiments.scenario.ScenarioConfig` dependency
key the DAG declares, perturbing that key (and nothing else) must
recompute exactly the declaring stage plus everything downstream of it
— one stage too few means stale artifacts, one too many means the
incremental engine silently lost its value.  A companion test derives
the same matrix from the ``STAGES`` declaration itself, so the literal
table here and the DAG in ``repro.experiments.stages`` cannot drift
apart unnoticed.
"""

import dataclasses
import pickle
from dataclasses import replace

import pytest

from repro.core.invariants import InvariantPolicy
from repro.experiments.cache import (
    CACHE_FORMAT,
    EXECUTION_ONLY_FIELDS,
    ScenarioCache,
    StageStore,
    explain_stages,
    render_explanations,
    stage_fingerprints,
)
from repro.experiments.scenario import PaperScenario, ScenarioConfig
from repro.experiments.stages import (
    STAGE_NAMES,
    STAGES,
    replay_plan,
    stage_spec,
)
from repro.honeypot.deployment import DeploymentConfig
from repro.obs.manifest import artifact_digests
from repro.obs.profile import PROFILE_ATTRS
from repro.sandbox.clustering import ClusteringConfig
from repro.sandbox.execution import SandboxConfig

SEED = 7
BASE = ScenarioConfig(
    n_weeks=8,
    scale=0.05,
    deployment=DeploymentConfig(n_networks=6, sensors_per_network=2),
)

ALL = frozenset(STAGE_NAMES)


def _variant(**overrides) -> ScenarioConfig:
    """``BASE`` with the given fields replaced."""
    return replace(BASE, **overrides)


def _downstream_of(name: str) -> frozenset[str]:
    """``name`` plus every stage reachable from it through ``parents``."""
    affected = {stage_spec(name).name}
    for spec in STAGES:
        if any(parent in affected for parent in spec.parents):
            affected.add(spec.name)
    return frozenset(affected)


#: One row per ScenarioConfig dependency key: the perturbed config and
#: the exact stage set that must recompute.  Mirrors the
#: ``config_keys`` declarations in :data:`repro.experiments.stages.STAGES`.
MATRIX = [
    pytest.param(
        _variant(deployment=DeploymentConfig(n_networks=5, sensors_per_network=2)),
        ALL,
        id="deployment",
    ),
    pytest.param(
        _variant(n_weeks=12),
        frozenset({"catalog", "observe", "enrich", "epm", "bgraph", "bcluster"}),
        id="n_weeks",
    ),
    pytest.param(
        _variant(scale=0.08),
        frozenset({"catalog", "observe", "enrich", "epm", "bgraph", "bcluster"}),
        id="scale",
    ),
    pytest.param(
        _variant(sandbox=SandboxConfig(noise_multiplier=2.0)),
        frozenset({"enrich", "epm", "bgraph", "bcluster"}),
        id="sandbox",
    ),
    pytest.param(
        _variant(invariant_policy=InvariantPolicy(min_instances=5)),
        frozenset({"epm"}),
        id="invariant_policy",
    ),
    pytest.param(
        _variant(clustering=ClusteringConfig(threshold=0.5)),
        frozenset({"bcluster"}),
        id="clustering",
    ),
    pytest.param(
        _variant(clustering=ClusteringConfig(bands=10)),
        frozenset({"bgraph", "bcluster"}),
        id="clustering.bands",
    ),
]


def _derived_misses(config: ScenarioConfig) -> frozenset[str]:
    """Expected miss set from the DAG declaration, not the literal table."""
    base = stage_fingerprints(SEED, BASE)
    perturbed = stage_fingerprints(SEED, config)
    return frozenset(name for name in STAGE_NAMES if base[name] != perturbed[name])


class TestStageFingerprints:
    def test_covers_every_stage_with_sha256(self):
        fingerprints = stage_fingerprints(SEED, BASE)
        assert set(fingerprints) == ALL
        assert all(len(fp) == 64 and int(fp, 16) >= 0 for fp in fingerprints.values())

    def test_seed_rekeys_everything(self):
        a = stage_fingerprints(SEED, BASE)
        b = stage_fingerprints(SEED + 1, BASE)
        assert all(a[name] != b[name] for name in STAGE_NAMES)

    def test_execution_knobs_do_not_rekey_any_stage(self):
        observed = _variant(events="e.jsonl", progress=True, windows=0)
        assert stage_fingerprints(SEED, BASE) == stage_fingerprints(SEED, observed)

    def test_bgraph_declares_every_clustering_field_but_the_threshold(self):
        # A ClusteringConfig field the graph does not declare would let a
        # changed LSH shape reuse a stale graph.
        keys = stage_spec("bgraph").config_keys
        assert all(key.startswith("clustering.") for key in keys)
        declared = {key.removeprefix("clustering.") for key in keys}
        fields = {f.name for f in dataclasses.fields(ClusteringConfig)}
        assert declared == fields - {"threshold"}
        assert stage_spec("bcluster").config_keys == ("clustering",)

    def test_execution_only_fields_are_config_fields(self):
        # A removed knob must not leave a stale name behind.
        names = {f.name for f in dataclasses.fields(ScenarioConfig)}
        assert EXECUTION_ONLY_FIELDS <= names

    @pytest.mark.parametrize(("config", "expected_misses"), MATRIX)
    def test_perturbation_rekeys_exactly_the_expected_stages(
        self, config, expected_misses
    ):
        assert _derived_misses(config) == expected_misses

    def test_matrix_matches_the_dag_declaration(self):
        # The literal table above must agree with what STAGES declares:
        # a changed key invalidates the stages declaring it plus their
        # downstream closure, nothing else.
        literal = {row.id: row.values[1] for row in MATRIX}
        for key, expected in literal.items():
            declaring = [spec.name for spec in STAGES if key in spec.config_keys]
            assert declaring, f"matrix row {key!r} matches no stage declaration"
            derived = frozenset().union(*(_downstream_of(name) for name in declaring))
            assert derived == expected


class TestInvalidationMatrix:
    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        return StageStore(tmp_path_factory.mktemp("stages"))

    @pytest.fixture(scope="class")
    def cold(self, store):
        return PaperScenario(seed=SEED, config=BASE).run(stage_store=store)

    def test_cold_run_misses_everywhere(self, cold):
        assert cold.stage_cache == {name: "miss" for name in STAGE_NAMES}

    def test_warm_run_replays_everywhere_bit_identically(self, store, cold):
        warm = PaperScenario(seed=SEED, config=BASE).run(stage_store=store)
        assert warm.stage_cache == {name: "hit" for name in STAGE_NAMES}
        assert warm.manifest.artifact_digests == cold.manifest.artifact_digests

    def test_no_store_reports_cache_off(self):
        run = PaperScenario(seed=SEED, config=BASE).run()
        assert run.stage_cache == {name: "off" for name in STAGE_NAMES}

    @pytest.mark.parametrize(("config", "expected_misses"), MATRIX)
    def test_perturbation_recomputes_exactly_the_expected_stages(
        self, store, cold, config, expected_misses
    ):
        run = PaperScenario(seed=SEED, config=config).run(stage_store=store)
        observed_misses = {name for name, s in run.stage_cache.items() if s == "miss"}
        observed_hits = {name for name, s in run.stage_cache.items() if s == "hit"}
        assert observed_misses == expected_misses
        assert observed_hits == ALL - expected_misses
        if expected_misses == {"bcluster"}:
            # Upstream of the clustering change nothing moved, so the
            # shared artifacts stay byte-identical to the cold run.
            for artifact in ("dataset.events", "epm.clusters"):
                assert (
                    run.manifest.artifact_digests[artifact]
                    == cold.manifest.artifact_digests[artifact]
                )

    def test_seed_change_recomputes_everything(self, store, cold):
        run = PaperScenario(seed=SEED + 1, config=BASE).run(stage_store=store)
        assert run.stage_cache == {name: "miss" for name in STAGE_NAMES}

    def test_partial_warm_run_matches_a_cold_rebuild_byte_for_byte(
        self, store, cold, tmp_path
    ):
        # Replayed upstream artifacts must feed the recomputed stages
        # the exact state a cold build would: a partially-warm run and
        # a from-scratch build of the same perturbed config must agree
        # on every artifact digest.  (A multiplier the matrix runs have
        # not already warmed in the shared class store.)
        perturbed = _variant(sandbox=SandboxConfig(noise_multiplier=3.0))
        partial = PaperScenario(seed=SEED, config=perturbed).run(stage_store=store)
        assert {s for s in partial.stage_cache.values()} == {"hit", "miss"}
        scratch = PaperScenario(seed=SEED, config=perturbed).run(
            stage_store=StageStore(tmp_path)
        )
        assert partial.manifest.artifact_digests == scratch.manifest.artifact_digests
        assert partial.headline() == scratch.headline()


def _corrupt(path) -> None:
    """Flip one byte in the middle of a stored entry."""
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))


def _stage_attributes(run) -> dict[str, dict]:
    """Depth-1 span attributes, minus cache status and resource probes."""
    return {
        span.name: {
            key: value
            for key, value in span.attributes.items()
            if key not in ("cache", *PROFILE_ATTRS)
        }
        for depth, span in run.trace.walk()
        if depth == 1
    }


class TestReplayPlan:
    """A replay reads only the stage entries the run uses.

    ``enrich`` re-provides every upstream key, so with it stored the
    ``deployment``, ``catalog`` and ``observe`` entries are never read;
    an unreadable planned entry falls back to its skipped ancestors.
    """

    @pytest.fixture
    def warm(self, tmp_path):
        cache = ScenarioCache(tmp_path)
        return cache, cache.get_or_run(PaperScenario(seed=SEED, config=BASE))

    @pytest.fixture
    def reads(self, monkeypatch):
        """Stages whose ``StageStore.load`` returned an entry, in order."""
        seen: list[str] = []
        real = StageStore.load

        def spy(store, stage, fingerprint):
            loaded = real(store, stage, fingerprint)
            if loaded is not None:
                seen.append(stage)
            return loaded

        monkeypatch.setattr(StageStore, "load", spy)
        return seen

    def test_plan_follows_the_provides_declarations(self):
        assert replay_plan(STAGE_NAMES) == ("enrich", "epm", "bcluster")
        assert replay_plan(ALL - {"bcluster"}) == ("enrich", "epm", "bgraph")
        assert replay_plan(ALL - {"bgraph", "bcluster"}) == ("enrich", "epm")
        assert replay_plan(ALL - {"enrich", "epm", "bgraph", "bcluster"}) == (
            "catalog",
            "observe",
        )
        assert replay_plan(()) == ()

    def test_whole_run_hit_reads_enrich_epm_and_bcluster(self, warm, reads):
        cache, cold = warm
        run = cache.load(SEED, BASE)
        assert reads == ["enrich", "epm", "bcluster"]
        assert artifact_digests(run) == cold.manifest.artifact_digests

    def test_warm_stage_run_skips_the_upstream_entries(self, warm, reads):
        cache, cold = warm
        run = PaperScenario(seed=SEED, config=BASE).run(stage_store=cache.stages)
        assert reads == ["enrich", "epm", "bcluster"]
        assert run.stage_cache == {name: "hit" for name in STAGE_NAMES}
        assert run.manifest.artifact_digests == cold.manifest.artifact_digests

    def test_threshold_change_reads_enrich_epm_and_bgraph(self, warm, reads):
        cache, cold = warm
        config = _variant(clustering=ClusteringConfig(threshold=0.5))
        run = cache.get_or_run(PaperScenario(seed=SEED, config=config))
        # The threshold-free graph replays; only its cut recomputes.
        assert reads == ["enrich", "epm", "bgraph"]
        assert {n for n, s in run.stage_cache.items() if s == "miss"} == {"bcluster"}
        assert (
            run.manifest.artifact_digests["dataset.events"]
            == cold.manifest.artifact_digests["dataset.events"]
        )

    def test_threshold_change_emits_only_the_cut_telemetry(self, warm):
        # A replayed graph opens no lsh.* span and emits no lsh.* metric;
        # the recomputed cut sets lsh.clusters.
        cache, cold = warm
        config = _variant(clustering=ClusteringConfig(threshold=0.5))
        run = PaperScenario(seed=SEED, config=config).run(stage_store=cache.stages)
        names = {span.name for _depth, span in run.trace.walk()}
        assert not any(name.startswith("lsh.") for name in names)
        assert run.metrics.names() & {
            "lsh.unique_profiles",
            "lsh.candidate_pairs",
            "lsh.pairs_verified",
            "lsh.bucket_size",
            "lsh.buckets_skipped",
        } == set()
        assert run.metrics.gauge("lsh.clusters") == run.bclusters.n_clusters
        assert cold.metrics.counter("lsh.candidate_pairs") == (
            run.bclusters.n_candidate_pairs
        )

    def test_corrupt_enrich_entry_recomputes_from_observe(self, warm, reads):
        cache, cold = warm
        _corrupt(cache.stages.path_for("enrich", stage_fingerprints(SEED, BASE)["enrich"]))
        run = cache.get_or_run(PaperScenario(seed=SEED, config=BASE))
        # The record's replay evicts the entry; the rebuild plans around it.
        assert reads == ["catalog", "observe", "epm", "bcluster"]
        assert run.stage_cache == {
            name: "miss" if name == "enrich" else "hit" for name in STAGE_NAMES
        }
        assert run.manifest.artifact_digests == cold.manifest.artifact_digests
        assert artifact_digests(run) == cold.manifest.artifact_digests

    def test_unreadable_planned_entries_fall_back_to_skipped_ancestors(
        self, warm, reads
    ):
        cache, cold = warm
        fingerprints = stage_fingerprints(SEED, BASE)
        for stage in ("observe", "enrich"):
            _corrupt(cache.stages.path_for(stage, fingerprints[stage]))
        run = PaperScenario(seed=SEED, config=BASE).run(stage_store=cache.stages)
        # enrich was planned and is unreadable: it recomputes from the
        # skipped catalog and observe entries, and observe (unreadable
        # too) recomputes from the skipped deployment entry.
        assert reads == ["catalog", "deployment", "epm", "bcluster"]
        assert run.stage_cache == {
            name: "miss" if name in ("observe", "enrich") else "hit"
            for name in STAGE_NAMES
        }
        spans = {span.name: span for depth, span in run.trace.walk() if depth == 1}
        assert spans["observe"].attributes["cache"] == "miss"
        assert run.manifest.artifact_digests == cold.manifest.artifact_digests
        again = PaperScenario(seed=SEED, config=BASE).run(stage_store=cache.stages)
        assert again.stage_cache == {name: "hit" for name in STAGE_NAMES}

    def test_warm_manifest_keeps_the_cold_span_attributes(self, warm):
        cache, cold = warm
        hit = cache.load(SEED, BASE)
        replayed = PaperScenario(seed=SEED, config=BASE).run(stage_store=cache.stages)
        assert _stage_attributes(hit) == _stage_attributes(cold)
        assert _stage_attributes(replayed) == _stage_attributes(cold)

    def test_entry_with_keys_other_than_provides_is_evicted(self, warm):
        cache, _cold = warm
        fingerprint = stage_fingerprints(SEED, BASE)["enrich"]
        loaded = cache.stages.load("enrich", fingerprint)
        del loaded["catalog"]
        cache.stages.store("enrich", fingerprint, loaded, {"format": CACHE_FORMAT})
        assert cache.stages.load("enrich", fingerprint) is None
        assert not cache.stages.has("enrich", fingerprint)


class TestExplain:
    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("explain-stages")
        store = StageStore(root)
        PaperScenario(seed=SEED, config=BASE).run(stage_store=store)
        return store

    def test_unchanged_config_forecasts_all_hits(self, store):
        explanations = explain_stages(SEED, BASE, store)
        assert all(e.cached for e in explanations)
        assert "7/7" in render_explanations(explanations)

    def test_empty_store_blames_no_prior_artifact(self, tmp_path):
        explanations = explain_stages(SEED, BASE, StageStore(tmp_path))
        assert not any(e.cached for e in explanations)
        assert explanations[0].causes == ("no prior artifact",)

    def test_config_perturbation_names_the_dotted_key(self, store):
        perturbed = _variant(clustering=ClusteringConfig(threshold=0.5))
        by_stage = {e.stage: e for e in explain_stages(SEED, perturbed, store)}
        assert sum(1 for e in by_stage.values() if not e.cached) == 1
        causes = by_stage["bcluster"].causes
        assert any(cause.startswith("config:clustering.threshold") for cause in causes)
        assert not any(
            cause.startswith("config:clustering.threshold")
            for explanation in by_stage.values()
            if explanation.stage != "bcluster"
            for cause in explanation.causes
        )

    def test_lsh_shape_change_blames_the_graph_key(self, store):
        perturbed = _variant(clustering=ClusteringConfig(bands=10))
        by_stage = {e.stage: e for e in explain_stages(SEED, perturbed, store)}
        assert {s for s, e in by_stage.items() if not e.cached} == {"bgraph", "bcluster"}
        assert by_stage["bgraph"].causes == ("config:clustering.bands 20 -> 10",)
        assert "upstream:bgraph" in by_stage["bcluster"].causes

    def test_downstream_stage_blames_its_upstream(self, store):
        perturbed = _variant(sandbox=SandboxConfig(noise_multiplier=2.0))
        by_stage = {e.stage: e for e in explain_stages(SEED, perturbed, store)}
        assert "upstream:enrich" in by_stage["epm"].causes
        assert "upstream:enrich" in by_stage["bgraph"].causes
        assert "upstream:bgraph" in by_stage["bcluster"].causes

    def test_seed_change_blames_the_seed(self, store):
        explanations = explain_stages(SEED + 1, BASE, store)
        assert not any(e.cached for e in explanations)
        assert any("seed" in cause for cause in explanations[0].causes)


class TestStageStore:
    def test_corrupt_artifact_is_evicted_as_miss(self, tmp_path):
        store = StageStore(tmp_path)
        fingerprints = stage_fingerprints(SEED, BASE)
        path = store.path_for("deployment", fingerprints["deployment"])
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"not a pickle")
        assert store.load("deployment", fingerprints["deployment"]) is None
        assert not path.exists()

    def test_non_dict_artifact_is_evicted(self, tmp_path):
        store = StageStore(tmp_path)
        path = store.path_for("deployment", "ab" * 32)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(pickle.dumps(["not", "a", "dict"]))
        assert store.load("deployment", "ab" * 32) is None
        assert not path.exists()

    def test_gc_drops_orphans_temp_files_and_stale_formats(self, tmp_path):
        store = StageStore(tmp_path)
        store.store("epm", "aa" * 32, {"epm": 1}, {"format": CACHE_FORMAT})
        stage_dir = store.root / "epm"
        (stage_dir / "orphan.pkl").write_bytes(pickle.dumps({"x": 1}))
        (stage_dir / "widow.json").write_text("{}", encoding="utf-8")
        (stage_dir / "torn.pkl.tmp.123").write_bytes(b"partial")
        store.store("epm", "bb" * 32, {"epm": 2}, {"format": CACHE_FORMAT - 1})
        removed, reclaimed = store.gc()
        assert removed == 5  # orphan, widow, tmp, stale pkl + sidecar
        assert reclaimed > 0
        assert store.load("epm", "aa" * 32) == {"epm": 1}

    def test_gc_clear_empties_the_store(self, tmp_path):
        store = StageStore(tmp_path)
        store.store("epm", "aa" * 32, {"epm": 1}, {"format": CACHE_FORMAT})
        store.gc(clear=True)
        assert store.entries() == []
