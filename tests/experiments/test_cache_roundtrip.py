"""Cache round trips: corrupt entries and the paused cyclic GC.

A corrupt entry must be a counted miss, never a crash and never a
silent load: every entry starts with a header of its cache format and
the SHA-256 of its payload, so a truncated or byte-flipped run record or
stage entry fails the format or digest check before anything is
unpickled, and every failed load must evict the entry and bump
``cache.evict``.

Pickling and the whole stage pipeline run with the cyclic GC paused;
the caller's collector must be back on once they return or raise.
The pause promotes a run's survivors to the oldest generation, so a
dropped run must be freed by reference counting alone: no run may hold
its artifacts in a reference cycle.
"""

import gc
import pickle
import random
import weakref

import pytest

from repro.experiments import stages
from repro.experiments.cache import ScenarioCache, StageStore, stage_fingerprints
from repro.experiments.scenario import PaperScenario, ScenarioConfig
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import MetricsRegistry
from repro.sandbox.clustering import ClusteringConfig

#: The CI smoke run's config (``repro run --scale 0.05 --weeks 8 --seed 7``).
SEED = 7
SMOKE = ScenarioConfig(n_weeks=8, scale=0.05)
#: The smoke config at another LSH threshold (only ``bcluster`` re-keys).
THRESHOLD = ScenarioConfig(
    n_weeks=8, scale=0.05, clustering=ClusteringConfig(threshold=0.5)
)
#: Truncated copies tried per entry.
COPIES = 60
#: Byte-flipped copies tried per entry.
FLIPS = 300


@pytest.fixture(scope="module")
def entries(tmp_path_factory):
    """The smoke run's stage store, plus the intact bytes of its run
    record and of its ``observe`` stage entry."""
    root = tmp_path_factory.mktemp("cache")
    cache = ScenarioCache(root)
    cache.get_or_run(PaperScenario(SEED, SMOKE))
    fingerprint = stage_fingerprints(SEED, SMOKE)["observe"]
    return {
        "stages": cache.stages,
        "run": cache.path_for(SEED, SMOKE).read_bytes(),
        "observe": cache.stages.path_for("observe", fingerprint).read_bytes(),
    }


def _truncated(blob: bytes, rng: random.Random) -> bytes:
    return blob[: rng.randrange(len(blob))]


def _flipped(blob: bytes, rng: random.Random) -> bytes:
    """``blob`` with three distinct bytes XORed with non-zero masks."""
    out = bytearray(blob)
    for offset in rng.sample(range(len(out)), 3):
        out[offset] ^= rng.randrange(1, 256)
    return bytes(out)


def _load_corrupt_copies(kind, corrupt, entries, tmp_path, copies):
    """Load ``copies`` corrupt copies; returns ``(failed, silent)`` counts.

    Asserts that no load raises and that every failed load evicted its
    entry and bumped ``cache.evict`` exactly once.  A run record is
    loaded over the intact stage store, so only the record is corrupt.
    """
    rng = random.Random(f"{kind}-{corrupt.__name__}")
    if kind == "run":
        store = ScenarioCache(tmp_path, entries["stages"])
        path = store.path_for(SEED, SMOKE)

        def load():
            return store.load(SEED, SMOKE)

    else:
        store = StageStore(tmp_path)
        fingerprint = stage_fingerprints(SEED, SMOKE)["observe"]
        path = store.path_for("observe", fingerprint)

        def load():
            return store.load("observe", fingerprint)

    path.parent.mkdir(parents=True, exist_ok=True)
    registry = MetricsRegistry()
    failed = silent = 0
    with obs_metrics.use(registry):
        for _ in range(copies):
            path.write_bytes(corrupt(entries[kind], rng))
            evicted = registry.snapshot().counter("cache.evict")
            loaded = load()
            if loaded is None:
                failed += 1
                assert not path.exists()
                assert registry.snapshot().counter("cache.evict") == evicted + 1
            else:
                silent += 1
    assert gc.isenabled()
    return failed, silent


class TestCorruptEntries:
    @pytest.mark.parametrize("kind", ["run", "observe"])
    def test_every_truncation_is_an_evicted_miss(self, kind, entries, tmp_path):
        failed, silent = _load_corrupt_copies(
            kind, _truncated, entries, tmp_path, COPIES
        )
        assert (failed, silent) == (COPIES, 0)

    @pytest.mark.parametrize("kind", ["run", "observe"])
    def test_byte_flips_never_raise(self, kind, entries, tmp_path):
        # Every flip is caught by the content digest: none loads silently.
        failed, silent = _load_corrupt_copies(
            kind, _flipped, entries, tmp_path, FLIPS
        )
        assert (failed, silent) == (FLIPS, 0)

    def test_intact_entries_still_load(self, entries, tmp_path):
        cache = ScenarioCache(tmp_path, entries["stages"])
        cache.path_for(SEED, SMOKE).write_bytes(entries["run"])
        assert cache.load(SEED, SMOKE) is not None

    def test_entry_without_a_digest_is_an_evicted_miss(self, entries, tmp_path):
        # An entry written before the digest existed is a bare pickle.
        store = StageStore(tmp_path)
        fingerprint = stage_fingerprints(SEED, SMOKE)["observe"]
        bare = pickle.dumps(entries["stages"].load("observe", fingerprint))
        path = store.path_for("observe", fingerprint)
        path.parent.mkdir(parents=True)
        path.write_bytes(bare)
        assert store.load("observe", fingerprint) is None
        assert not path.exists()


@pytest.fixture
def gc_spy(monkeypatch):
    """Record ``gc.isenabled()`` at every ``pickle.loads``/``pickle.dumps``."""
    seen: dict[str, list[bool]] = {"load": [], "dump": []}
    real_loads, real_dumps = pickle.loads, pickle.dumps

    def loads(*args, **kwargs):
        seen["load"].append(gc.isenabled())
        return real_loads(*args, **kwargs)

    def dumps(*args, **kwargs):
        seen["dump"].append(gc.isenabled())
        return real_dumps(*args, **kwargs)

    monkeypatch.setattr(pickle, "loads", loads)
    monkeypatch.setattr(pickle, "dumps", dumps)
    return seen


class TestGCPause:
    def test_cache_pickling_runs_with_gc_paused(self, gc_spy, tmp_path):
        cache = ScenarioCache(tmp_path)
        cache.get_or_run(PaperScenario(SEED, SMOKE))
        cache.load(SEED, SMOKE)
        PaperScenario(SEED, SMOKE).run(stage_store=cache.stages)
        # Misses fail at open(), before any unpickling: what pickles is
        # every stage stored once plus the run record by the cold run,
        # then the record and the replay plan's entries loaded by the
        # whole-run hit, and the plan's entries again by the stage replay.
        n_stages = len(stages.STAGES)
        n_plan = len(stages.replay_plan(stages.STAGE_NAMES))
        assert (n_stages, n_plan) == (7, 3)
        assert gc_spy["dump"] == [False] * (n_stages + 1)
        assert gc_spy["load"] == [False] * (1 + 2 * n_plan)
        assert gc.isenabled()

    def test_stage_compute_runs_with_gc_paused(self, monkeypatch):
        seen = []
        real = stages.build_catalog

        def spy(*args, **kwargs):
            seen.append(gc.isenabled())
            return real(*args, **kwargs)

        monkeypatch.setattr(stages, "build_catalog", spy)
        PaperScenario(SEED, SMOKE).run()
        assert seen == [False]
        assert gc.isenabled()

    def test_gc_is_back_on_after_a_stage_raises(self, monkeypatch):
        def boom(*args, **kwargs):
            assert not gc.isenabled()
            raise RuntimeError("stage failed")

        monkeypatch.setattr(stages, "build_catalog", boom)
        with pytest.raises(RuntimeError, match="stage failed"):
            PaperScenario(SEED, SMOKE).run()
        assert gc.isenabled()


class TestAcyclicRuns:
    @pytest.mark.parametrize("build", ["cold", "cache-fill", "whole-run-hit", "threshold"])
    def test_no_artifact_outlives_its_run(self, build, tmp_path):
        """With the collector off, ``del run`` alone frees every artifact."""
        cache = ScenarioCache(tmp_path)
        if build in ("whole-run-hit", "threshold"):
            cache.get_or_run(PaperScenario(SEED, SMOKE))
        builds = {
            "cold": lambda: PaperScenario(SEED, SMOKE).run(),
            "cache-fill": lambda: cache.get_or_run(PaperScenario(SEED, SMOKE)),
            "whole-run-hit": lambda: cache.load(SEED, SMOKE),
            "threshold": lambda: cache.get_or_run(PaperScenario(SEED, THRESHOLD)),
        }
        gc.collect()
        gc.disable()
        try:
            run = builds[build]()
            refs = {key: weakref.ref(getattr(run, key)) for key in stages.RUN_KEYS}
            del run
            alive = sorted(key for key, ref in refs.items() if ref() is not None)
        finally:
            gc.enable()
        assert alive == []
