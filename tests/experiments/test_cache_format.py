"""Cache identity: fingerprints name the algorithm, entries carry the format.

Every scenario and stage fingerprint hashes :data:`ALGORITHM_VERSION`,
the seed and the semantic config, never :data:`CACHE_FORMAT`; the
format lives in each entry's header.  An entry of another format is
evicted as a counted miss (reason ``format``) before anything in it is
hashed or unpickled, a run over such a store recomputes the stage, and
``cache explain`` names the format change instead of forecasting a hit.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments import cache as cache_module
from repro.experiments.cache import (
    CACHE_FORMAT,
    ScenarioCache,
    StageStore,
    explain_stages,
    scenario_fingerprint,
    stage_fingerprints,
)
from repro.experiments.scenario import PaperScenario, ScenarioConfig
from repro.experiments.stages import STAGE_NAMES
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs.events import EventBus, MemoryTransport
from repro.obs.manifest import artifact_digests
from repro.obs.metrics import MetricsRegistry

#: The committed reference run's config (``repro run --scale 0.05 --weeks 8 --seed 7``).
SEED = 7
SMOKE = ScenarioConfig(n_weeks=8, scale=0.05)
REFERENCE = Path(__file__).resolve().parents[2] / "results" / "runs" / "reference.json"
OLD_FORMAT = CACHE_FORMAT - 1

#: Every object a load unpickled from a :class:`_Tripwire` payload.
UNPICKLED: list[str] = []


def _tripped(name: str) -> str:
    UNPICKLED.append(name)
    return name


class _Tripwire:
    """Unpickling it records ``name`` in :data:`UNPICKLED`."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __reduce__(self):
        return (_tripped, (self.name,))


@pytest.fixture
def old_format(monkeypatch):
    """Run a callable with :data:`CACHE_FORMAT` set to the previous format."""

    def write(fn, *args, **kwargs):
        with monkeypatch.context() as patched:
            patched.setattr(cache_module, "CACHE_FORMAT", OLD_FORMAT)
            return fn(*args, **kwargs)

    return write


@pytest.fixture
def observed():
    """The registry and the ``cache.evict`` reasons of the loads inside."""
    registry, transport = MetricsRegistry(), MemoryTransport()
    UNPICKLED.clear()
    with obs_metrics.use(registry), obs_events.use_bus(EventBus([transport])):
        yield registry, transport
    UNPICKLED.clear()


def _evictions(transport: MemoryTransport) -> list[str]:
    return [e.fields["reason"] for e in transport.events if e.kind == "cache.evict"]


class TestIdentity:
    def test_cache_format_moves_no_fingerprint(self, monkeypatch):
        before = scenario_fingerprint(SEED, SMOKE), stage_fingerprints(SEED, SMOKE)
        monkeypatch.setattr(cache_module, "CACHE_FORMAT", CACHE_FORMAT + 1)
        assert (scenario_fingerprint(SEED, SMOKE), stage_fingerprints(SEED, SMOKE)) == before

    def test_algorithm_version_moves_every_fingerprint(self, monkeypatch):
        run, stages = scenario_fingerprint(SEED, SMOKE), stage_fingerprints(SEED, SMOKE)
        version = cache_module.ALGORITHM_VERSION
        monkeypatch.setattr(cache_module, "ALGORITHM_VERSION", version + 1)
        assert scenario_fingerprint(SEED, SMOKE) != run
        moved = stage_fingerprints(SEED, SMOKE)
        assert all(moved[name] != stages[name] for name in STAGE_NAMES)

    def test_the_reference_fingerprint_is_the_smoke_config(self):
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
        assert reference["fingerprint"] == scenario_fingerprint(SEED, SMOKE)
        assert reference["stage_fingerprints"] == stage_fingerprints(SEED, SMOKE)


class TestOtherFormatEntries:
    def test_stage_entry_is_evicted_unread(self, tmp_path, old_format, observed):
        registry, transport = observed
        store = StageStore(tmp_path)
        fingerprint = stage_fingerprints(SEED, SMOKE)["observe"]
        old_format(
            store.store,
            "observe",
            fingerprint,
            {"observe": _Tripwire("stage")},
            {"format": OLD_FORMAT},
        )
        assert store.load("observe", fingerprint) is None
        assert UNPICKLED == []
        assert _evictions(transport) == ["format"]
        assert (store.hits, store.misses) == (0, 1)
        assert registry.snapshot().counter("cache.stage_miss", stage="observe") == 1
        assert not store.has("observe", fingerprint)
        assert not store.meta_path_for("observe", fingerprint).exists()

    def test_run_record_is_evicted_unread(self, tmp_path, old_format, observed):
        registry, transport = observed
        cache = ScenarioCache(tmp_path)
        path = cache.path_for(SEED, SMOKE)
        old_format(cache_module._write_entry, path, {"seed": _Tripwire("record")})
        assert cache.load(SEED, SMOKE) is None
        assert UNPICKLED == []
        assert _evictions(transport) == ["format"]
        assert (cache.hits, cache.misses) == (0, 1)
        assert registry.snapshot().counter("cache.miss") == 1
        assert not path.exists()

    def test_a_run_recomputes_the_stage_and_keeps_the_reference_digests(
        self, tmp_path, old_format, observed
    ):
        _registry, transport = observed
        cache = ScenarioCache(tmp_path)
        cache.get_or_run(PaperScenario(SEED, SMOKE))
        # Rewrite the record and the planned enrich entry under the old
        # format, keeping their content.
        fingerprint = stage_fingerprints(SEED, SMOKE)["enrich"]
        enrich = cache.stages.load("enrich", fingerprint)
        meta = cache.stages.meta("enrich", fingerprint)
        old_format(cache.stages.store, "enrich", fingerprint, enrich, {**meta, "format": OLD_FORMAT})
        record = cache.path_for(SEED, SMOKE)
        payload = cache_module._read_entry(record)
        old_format(cache_module._write_entry, record, payload)
        transport.events.clear()

        run = cache.get_or_run(PaperScenario(SEED, SMOKE))
        assert _evictions(transport) == ["format", "format"]
        assert run.stage_cache == {
            name: "miss" if name == "enrich" else "hit" for name in STAGE_NAMES
        }
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
        assert run.manifest.artifact_digests == reference["artifact_digests"]
        assert artifact_digests(run) == reference["artifact_digests"]
        assert cache.stages.meta("enrich", fingerprint)["format"] == CACHE_FORMAT
        assert cache.load(SEED, SMOKE) is not None


class TestExplainFormat:
    def test_other_format_entry_forecasts_a_miss(self, tmp_path, old_format):
        store = StageStore(tmp_path)
        PaperScenario(SEED, SMOKE).run(stage_store=store)
        fingerprint = stage_fingerprints(SEED, SMOKE)["epm"]
        entry = store.load("epm", fingerprint)
        meta = store.meta("epm", fingerprint)
        old_format(store.store, "epm", fingerprint, entry, {**meta, "format": OLD_FORMAT})
        by_stage = {e.stage: e for e in explain_stages(SEED, SMOKE, store)}
        assert {s for s, e in by_stage.items() if not e.cached} == {"epm"}
        assert by_stage["epm"].causes == (f"cache format {OLD_FORMAT} -> {CACHE_FORMAT}",)

    def test_cache_explain_names_the_format_change(
        self, tmp_path, monkeypatch, old_format, capsys
    ):
        root = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
        old_format(PaperScenario(SEED, SMOKE).run, stage_store=StageStore(root / "stages"))
        assert main(["cache", "explain", "--seed", "7", "--scale", "0.05", "--weeks", "8"]) == 0
        out = capsys.readouterr().out
        assert out.count(f"cache format {OLD_FORMAT} -> {CACHE_FORMAT}") == len(STAGE_NAMES)
        assert "0/7 stage(s) would replay" in out
