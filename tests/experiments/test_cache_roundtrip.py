"""Cache round trips: corrupt entries and the paused cyclic GC.

A corrupt entry must be a counted miss, never a crash: the unpickler
can fail on flipped bytes with almost any exception type
(``UnicodeDecodeError``, ``ValueError``, ``MemoryError``, ...), and
every failed load must evict the entry and bump ``cache.evict``.  Some
flips decode into a different but well-formed object and load
silently; nothing short of a content digest on the entry catches those,
so the tests count them without asserting on them.

Pickling and the whole stage pipeline run with the cyclic GC paused;
the caller's collector must be back on once they return or raise.
"""

import gc
import pickle
import random

import pytest

from repro.experiments import stages
from repro.experiments.cache import ScenarioCache, StageStore, stage_fingerprints
from repro.experiments.scenario import PaperScenario, ScenarioConfig
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import MetricsRegistry

#: The CI smoke run's config (``repro run --scale 0.05 --weeks 8 --seed 7``).
SEED = 7
SMOKE = ScenarioConfig(n_weeks=8, scale=0.05)
#: Corrupt copies tried per store and per corruption kind.
COPIES = 60


@pytest.fixture(scope="module")
def entries(tmp_path_factory):
    """Intact bytes of the smoke run's whole-run and ``observe`` entries."""
    root = tmp_path_factory.mktemp("cache")
    cache = ScenarioCache(root)
    store = StageStore(root / "stages")
    cache.get_or_run(PaperScenario(SEED, SMOKE), stage_store=store)
    fingerprint = stage_fingerprints(SEED, SMOKE)["observe"]
    return {
        "run": cache.path_for(SEED, SMOKE).read_bytes(),
        "observe": store.path_for("observe", fingerprint).read_bytes(),
    }


def _truncated(blob: bytes, rng: random.Random) -> bytes:
    return blob[: rng.randrange(len(blob))]


def _flipped(blob: bytes, rng: random.Random) -> bytes:
    """``blob`` with three distinct bytes XORed with non-zero masks."""
    out = bytearray(blob)
    for offset in rng.sample(range(len(out)), 3):
        out[offset] ^= rng.randrange(1, 256)
    return bytes(out)


def _load_corrupt_copies(kind, corrupt, entries, tmp_path):
    """Load ``COPIES`` corrupt copies; returns ``(failed, silent)`` counts.

    Asserts that no load raises and that every failed load evicted its
    entry and bumped ``cache.evict`` exactly once.
    """
    rng = random.Random(f"{kind}-{corrupt.__name__}")
    if kind == "run":
        store = ScenarioCache(tmp_path)
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
        for _ in range(COPIES):
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
        failed, silent = _load_corrupt_copies(kind, _truncated, entries, tmp_path)
        assert (failed, silent) == (COPIES, 0)

    @pytest.mark.parametrize("kind", ["run", "observe"])
    def test_byte_flips_never_raise(self, kind, entries, tmp_path):
        failed, silent = _load_corrupt_copies(kind, _flipped, entries, tmp_path)
        # Silent loads are the measured gap a content digest would close.
        assert failed + silent == COPIES
        assert failed > 0


@pytest.fixture
def gc_spy(monkeypatch):
    """Record ``gc.isenabled()`` at every ``pickle.load``/``pickle.dump``."""
    seen: dict[str, list[bool]] = {"load": [], "dump": []}
    real_load, real_dump = pickle.load, pickle.dump

    def load(*args, **kwargs):
        seen["load"].append(gc.isenabled())
        return real_load(*args, **kwargs)

    def dump(*args, **kwargs):
        seen["dump"].append(gc.isenabled())
        return real_dump(*args, **kwargs)

    monkeypatch.setattr(pickle, "load", load)
    monkeypatch.setattr(pickle, "dump", dump)
    return seen


class TestGCPause:
    def test_cache_pickling_runs_with_gc_paused(self, gc_spy, tmp_path):
        cache = ScenarioCache(tmp_path)
        store = StageStore(tmp_path / "stages")
        cache.get_or_run(PaperScenario(SEED, SMOKE), stage_store=store)
        cache.load(SEED, SMOKE)
        PaperScenario(SEED, SMOKE).run(stage_store=store)
        # Misses fail at open(), before any unpickling: what pickles is
        # one whole-run store and load, and every stage stored once by
        # the cold run and loaded once by the replay.
        n_stages = len(stages.STAGES)
        assert gc_spy["dump"] == [False] * (n_stages + 1)
        assert gc_spy["load"] == [False] * (n_stages + 1)
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
