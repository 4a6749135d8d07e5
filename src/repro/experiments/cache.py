"""Content-addressed on-disk caches of scenario artifacts.

Two layers share one canonical-fingerprint substrate, and every
artifact is stored once, in the stage layer:

* :class:`StageStore` — the per-stage artifact store.  Each pipeline
  stage (see :data:`repro.experiments.stages.STAGES`) gets its own
  fingerprint covering only the config keys it declares plus its
  parents' fingerprints, chained content-address style.  A run replays
  every stage whose fingerprint is stored and recomputes only from the
  first invalidated stage down: changing the LSH threshold re-runs
  ``bcluster`` alone (a cut of the replayed ``bgraph`` similarity
  graph) while the ~17-month observation/enrichment artifacts replay.
* :class:`ScenarioCache` — the whole-run layer.  Its entry is a small
  *run record*: a :class:`~repro.experiments.scenario.ScenarioRun`
  without its eight stage artifacts (config, seed, grid, trace,
  metrics, manifest, stage cache, windows, health), keyed by a SHA-256
  over the ``(seed, ScenarioConfig)`` pair.  A hit reads the
  record and takes the artifacts from the stage entries on the replay
  plan (:func:`repro.experiments.stages.replay_plan`), so it replays
  the original build's manifest without a second copy of the data.

Fingerprints name meaning, not storage: they hash
:data:`ALGORITHM_VERSION`, the seed, the semantic config (the stage's
subset of it) and the parents' fingerprints, never the pickle layout.
The layout, :data:`CACHE_FORMAT`, lives in each entry's header, next to
the SHA-256 of its pickled payload.  A load that finds another format
evicts the entry as a counted miss (reason ``format``) before it hashes
or unpickles anything; one that finds a different digest (a torn write,
a flipped byte) evicts it (reason ``unreadable``) instead of unpickling
it.  So a layout change re-reads nothing stale and moves no fingerprint.

Execution-only knobs (``events``, ``progress``, ``windows``) are
excluded from every fingerprint: telemetry sinks cannot change the
artifacts, so a run built with a live event stream attached is a valid
cache hit for a request of the same scenario without one.  Stored
configs that still carry the retired ``executor``/``jobs`` fields
canonicalize without them (only declared fields are read), so their
fingerprints are unchanged.

Each stage artifact is stored next to a JSON sidecar recording the
exact fingerprint payload (config subset, parent fingerprints), which
is what lets ``repro cache explain`` name the config key that
invalidated a missing stage instead of just reporting the miss.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from repro.experiments.scenario import PaperScenario, ScenarioConfig, ScenarioRun
from repro.experiments.stages import (
    RUN_KEYS,
    STAGE_NAMES,
    STAGES,
    StageSpec,
    replay_plan,
    stage_spec,
)
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs.log import get_logger
from repro.util.canonical import canonicalize, flatten_canonical, mapping_delta
from repro.util.clock import timestamp
from repro.util.pickling import gc_paused
from repro.util.validation import require

log = get_logger("experiments.cache")

#: Storage layout of an entry: its header and the pickled shapes of
#: stage artifacts and run records.  Bump it when either changes
#: incompatibly; entries of another format are then evicted as misses on
#: load (and dropped by ``gc``), and no fingerprint moves.
CACHE_FORMAT = 13

#: Version of the algorithms behind the stages, hashed into every
#: scenario and stage fingerprint.  Bump it only when the outputs of an
#: unchanged semantic config may change.
ALGORITHM_VERSION = 1

#: ScenarioConfig fields that cannot change results, only how fast they
#: are computed or what telemetry they emit; they never contribute to
#: any fingerprint.
EXECUTION_ONLY_FIELDS = frozenset(
    {
        "events",
        "progress",
        "windows",
    }
)

#: Canonical-JSON reduction (shared with the run manifest's digests).
_canonical = canonicalize

#: The :class:`ScenarioRun` fields a run record keeps; the artifact
#: fields (:data:`~repro.experiments.stages.RUN_KEYS`) come from the
#: stage store.
RECORD_FIELDS: tuple[str, ...] = tuple(
    f.name for f in dataclasses.fields(ScenarioRun) if f.name not in RUN_KEYS
)

#: Suffix of run-record files.  Whole-run pickles (``*.pkl``) written
#: before records existed are never read, only removed by ``gc``.
RECORD_SUFFIX = ".run"

#: Entry header: :data:`CACHE_FORMAT`, then the SHA-256 of the payload.
_HEADER = struct.Struct(f">I{hashlib.sha256().digest_size}s")


class FormatMismatch(ValueError):
    """An entry written under another :data:`CACHE_FORMAT`."""


def _write_entry(path: Path, obj: object) -> None:
    """Write ``header + payload`` for pickled ``obj``, atomically.

    The write goes through a same-directory temp file and an atomic
    rename, so concurrent readers never observe a torn entry.
    """
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    with tmp.open("wb") as handle:
        handle.write(_HEADER.pack(CACHE_FORMAT, hashlib.sha256(payload).digest()))
        handle.write(payload)
    os.replace(tmp, path)


def _read_entry(path: Path) -> object:
    """Unpickle an entry written by :func:`_write_entry`.

    Raises :class:`FormatMismatch` for an entry of another format,
    before its payload is read; ``ValueError`` when the payload does not
    match its digest, before it is unpickled; and whatever the
    unpickler raises.
    """
    with path.open("rb") as handle:
        stored_format, digest = _HEADER.unpack(handle.read(_HEADER.size))
        if stored_format != CACHE_FORMAT:
            raise FormatMismatch(f"cache format {stored_format} != {CACHE_FORMAT}")
        payload = handle.read()
    if hashlib.sha256(payload).digest() != digest:
        raise ValueError("content digest mismatch")
    return pickle.loads(payload)


def _eviction_reason(exc: Exception) -> str:
    """The ``cache.evict`` reason for an entry :func:`_read_entry` refused."""
    return "format" if isinstance(exc, FormatMismatch) else "unreadable"


def _semantic_config_payload(config: ScenarioConfig | None) -> dict:
    """Canonical config dict with execution-only fields removed."""
    payload = _canonical(config or ScenarioConfig())
    for name in EXECUTION_ONLY_FIELDS:
        payload.pop(name, None)
    return payload


def _digest(payload: object) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def scenario_fingerprint(seed: int, config: ScenarioConfig | None = None) -> str:
    """Stable content address of ``(seed, config)``.

    The fingerprint is a pure function of the *semantic* configuration:
    identical across processes and backends, different for any config
    field that can change the artifacts.

    >>> scenario_fingerprint(1) == scenario_fingerprint(1, ScenarioConfig())
    True
    >>> scenario_fingerprint(1) != scenario_fingerprint(2)
    True
    """
    payload = _semantic_config_payload(config)
    return _digest({"algorithm": ALGORITHM_VERSION, "seed": seed, "config": payload})


def _config_value(config_payload: Mapping, key: str) -> object:
    """The canonical config value at a (dotted) key; ``None`` if absent."""
    value: object = config_payload
    for part in key.split("."):
        value = value.get(part) if isinstance(value, Mapping) else None
    return value


def _stage_payload(
    spec: StageSpec, seed: int, config_payload: Mapping, fingerprints: Mapping[str, str]
) -> dict:
    """The exact content a stage's fingerprint hashes (also the sidecar).

    A dotted config key (``clustering.bands``) resolves through the
    nested canonical payload, so a stage can depend on one field of a
    sub-config without depending on its siblings.
    """
    return {
        "algorithm": ALGORITHM_VERSION,
        "stage": spec.name,
        "seed": seed,
        "config": {key: _config_value(config_payload, key) for key in spec.config_keys},
        "parents": {parent: fingerprints[parent] for parent in spec.parents},
    }


def stage_fingerprints(
    seed: int, config: ScenarioConfig | None = None
) -> dict[str, str]:
    """Per-stage content addresses of ``(seed, config)``, DAG-chained.

    Each stage's fingerprint covers only the config keys it declares
    (:data:`~repro.experiments.stages.STAGES`) plus its parents'
    fingerprints — so a config change re-keys exactly the declaring
    stage and everything downstream of it, and nothing else.
    """
    payload = _semantic_config_payload(config)
    fingerprints: dict[str, str] = {}
    for spec in STAGES:
        fingerprints[spec.name] = _digest(
            _stage_payload(spec, seed, payload, fingerprints)
        )
    return fingerprints


def default_cache_root() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro/scenarios``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "scenarios"


class ScenarioCache:
    """Run records over a :class:`StageStore`, addressed by scenario fingerprint.

    The cache owns a stage store at ``<root>/stages`` unless it is
    given one.  A record is only worth keeping for a run whose stage
    entries are stored, so :meth:`store` takes runs built through a
    stage store, and :meth:`get_or_run` always builds through one.
    """

    def __init__(
        self, root: str | Path | None = None, stages: "StageStore | None" = None
    ) -> None:
        self.root = Path(root) if root is not None else default_cache_root()
        self.stages = stages if stages is not None else StageStore(self.root / "stages")
        self.hits = 0
        self.misses = 0

    def path_for(self, seed: int, config: ScenarioConfig | None = None) -> Path:
        """On-disk location of the ``(seed, config)`` run record."""
        return self.root / f"{scenario_fingerprint(seed, config)}{RECORD_SUFFIX}"

    def _miss(self, path: Path, evicted: str | None = None) -> None:
        registry = obs_metrics.active()
        bus = obs_events.active_bus()
        if evicted is not None:
            path.unlink(missing_ok=True)
            registry.counter("cache.evict").inc()
            bus.emit("cache.evict", fingerprint=path.stem, reason=evicted)
        self.misses += 1
        registry.counter("cache.miss").inc()
        bus.emit("cache.miss", fingerprint=path.stem)
        log.debug("cache miss", extra={"path": str(path)})

    @gc_paused()
    def load(
        self,
        seed: int,
        config: ScenarioConfig | None = None,
        *,
        stage_store: "StageStore | None" = None,
    ) -> ScenarioRun | None:
        """Return the cached run, or ``None`` on a miss.

        The record's artifacts are loaded from the stage entries on the
        replay plan (from ``stage_store``, default :attr:`stages`).
        Records of another :data:`CACHE_FORMAT` and unreadable records
        (torn writes, flipped bytes, a digest that does not match, an
        incompatible code version) are evicted and count as misses: any
        exception the unpickler raises counts, since a corrupt stream
        can fail with almost any type.  A record whose stage entries are
        missing or unreadable is a miss too; the rebuild replaces it.
        """
        path = self.path_for(seed, config)
        try:
            record = _read_entry(path)
        except FileNotFoundError:
            self._miss(path)
            return None
        except Exception as exc:
            log.warning(
                "evicted unreadable cache entry",
                extra={"path": str(path), "error": repr(exc)},
            )
            self._miss(path, evicted=_eviction_reason(exc))
            return None
        if not isinstance(record, dict) or tuple(record) != RECORD_FIELDS:
            log.warning("evicted non-record cache entry", extra={"path": str(path)})
            self._miss(path, evicted="not-a-record")
            return None
        session = StageCacheSession(stage_store or self.stages, seed, config)
        artifacts: dict[str, object] = {}
        for name in replay_plan(STAGE_NAMES):
            loaded = session.load(name)
            if loaded is None:
                log.warning(
                    "run record lacks a stage entry",
                    extra={"path": str(path), "stage": name},
                )
                self._miss(path)
                return None
            artifacts.update(loaded)
        self.hits += 1
        obs_metrics.active().counter("cache.hit").inc()
        obs_events.active_bus().emit("cache.hit", fingerprint=path.stem)
        log.debug("cache hit", extra={"path": str(path)})
        return ScenarioRun(**record, **{key: artifacts[key] for key in RUN_KEYS})

    @gc_paused()
    def store(self, run: ScenarioRun) -> Path:
        """Persist ``run``'s record under its fingerprint; returns the path.

        Only runs built through a stage store qualify: their artifacts
        are already stored there, and the record points at them.
        """
        require(isinstance(run, ScenarioRun), "can only cache ScenarioRun artifacts")
        require(
            all(run.stage_cache.get(name) in ("hit", "miss") for name in STAGE_NAMES),
            "a run record needs a run built through a stage store",
        )
        path = self.path_for(run.seed, run.config)
        self.root.mkdir(parents=True, exist_ok=True)
        _write_entry(path, {name: getattr(run, name) for name in RECORD_FIELDS})
        obs_metrics.active().counter("cache.store").inc()
        obs_events.active_bus().emit("cache.store", fingerprint=path.stem)
        log.debug("cache store", extra={"path": str(path)})
        return path

    def get_or_run(
        self, scenario: PaperScenario, *, stage_store: "StageStore | None" = None
    ) -> ScenarioRun:
        """Cached run for ``scenario``, building and storing on a miss.

        The rebuild goes through the incremental stage DAG on
        ``stage_store`` (default :attr:`stages`), so a whole-run miss
        still replays every stage whose fingerprint is stored — the
        partially-warm path.
        """
        stages = stage_store or self.stages
        cached = self.load(scenario.seed, scenario.config, stage_store=stages)
        if cached is not None:
            return cached
        run = scenario.run(stage_store=stages)
        self.store(run)
        return run

    def entries(self) -> list[tuple[str, int]]:
        """``(fingerprint, size_bytes)`` of every stored run record."""
        if not self.root.is_dir():
            return []
        return sorted(
            (path.stem, path.stat().st_size)
            for path in self.root.glob(f"*{RECORD_SUFFIX}")
        )

    def clear(self) -> int:
        """Delete every run record; returns the number of files removed."""
        return self.gc(clear=True)[0]

    def gc(self, *, clear: bool = False) -> tuple[int, int]:
        """Remove stale records; returns ``(files_removed, bytes_reclaimed)``.

        Stale means: leftover temp files, whole-run ``*.pkl`` pickles
        from before run records, unreadable records, and records whose
        replay-plan stage entries are gone from :attr:`stages` (run the
        stage store's ``gc`` first).  With ``clear=True`` every record
        goes.
        """
        if not self.root.is_dir():
            return 0, 0
        stale = [*self.root.glob("*.tmp.*"), *self.root.glob("*.pkl")]
        stale.extend(
            path
            for path in sorted(self.root.glob(f"*{RECORD_SUFFIX}"))
            if clear or not self._replayable(path)
        )
        return _drop_all(stale)

    def _replayable(self, path: Path) -> bool:
        """Whether the record at ``path`` reads and its plan's entries exist."""
        try:
            record = _read_entry(path)
            fingerprints = stage_fingerprints(record["seed"], record["config"])
        except Exception:
            return False
        return all(
            self.stages.has(name, fingerprints[name])
            for name in replay_plan(STAGE_NAMES)
        )


def _drop_all(paths: Iterable[Path]) -> tuple[int, int]:
    """Delete ``paths``; returns ``(files_removed, bytes_reclaimed)``."""
    removed = reclaimed = 0
    for path in paths:
        try:
            reclaimed += path.stat().st_size
        except OSError:
            pass
        path.unlink(missing_ok=True)
        removed += 1
    return removed, reclaimed


class StageStore:
    """Per-stage artifact store: ``<root>/<stage>/<fingerprint>.pkl``.

    Every artifact has a JSON sidecar carrying the exact fingerprint
    payload (algorithm version, config subset, parent fingerprints) plus
    bookkeeping (cache format, provides, created_at) — the raw material
    of :func:`explain_stages` and ``repro cache {ls,gc,explain}``.
    """

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_root() / "stages"
        self.hits = 0
        self.misses = 0

    def path_for(self, stage: str, fingerprint: str) -> Path:
        """On-disk location of one stage artifact."""
        return self.root / stage / f"{fingerprint}.pkl"

    def meta_path_for(self, stage: str, fingerprint: str) -> Path:
        """On-disk location of the artifact's JSON sidecar."""
        return self.root / stage / f"{fingerprint}.json"

    def has(self, stage: str, fingerprint: str) -> bool:
        """Whether an artifact is stored (no load, no telemetry)."""
        return self.path_for(stage, fingerprint).is_file()

    @gc_paused()
    def load(self, stage: str, fingerprint: str) -> dict | None:
        """The stage's artifact dict, or ``None`` on a miss.

        Entries of another :data:`CACHE_FORMAT`, unreadable entries (any
        exception while reading or unpickling, a digest that does not
        match) and entries whose keys differ from the stage's declared
        ``provides`` are evicted (sidecar included) and treated as
        misses.
        """
        registry = obs_metrics.active()
        bus = obs_events.active_bus()
        path = self.path_for(stage, fingerprint)
        reason = None
        try:
            artifacts = _read_entry(path)
        except FileNotFoundError:
            artifacts = None
        except Exception as exc:
            log.warning(
                "evicted unreadable stage artifact",
                extra={"path": str(path), "error": repr(exc)},
            )
            artifacts, reason = None, _eviction_reason(exc)
        if artifacts is not None and (
            not isinstance(artifacts, dict)
            or set(artifacts) != set(stage_spec(stage).provides)
        ):
            log.warning("evicted stale-shape stage artifact", extra={"path": str(path)})
            artifacts, reason = None, "wrong-keys"
        if reason is not None:
            path.unlink(missing_ok=True)
            self.meta_path_for(stage, fingerprint).unlink(missing_ok=True)
            registry.counter("cache.evict").inc()
            bus.emit("cache.evict", fingerprint=fingerprint, stage=stage, reason=reason)
        if artifacts is None:
            self.misses += 1
            registry.counter("cache.stage_miss", stage=stage).inc()
            bus.emit("cache.stage_miss", stage=stage, fingerprint=fingerprint)
            log.debug("stage cache miss", extra={"stage": stage, "path": str(path)})
            return None
        self.hits += 1
        registry.counter("cache.stage_hit", stage=stage).inc()
        bus.emit("cache.stage_hit", stage=stage, fingerprint=fingerprint)
        log.debug("stage cache hit", extra={"stage": stage, "path": str(path)})
        return artifacts

    @gc_paused()
    def store(
        self, stage: str, fingerprint: str, artifacts: Mapping, meta: Mapping
    ) -> Path:
        """Persist one stage's artifacts + sidecar atomically; returns the path."""
        require(isinstance(artifacts, Mapping), "stage artifacts must be a mapping")
        path = self.path_for(stage, fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        _write_entry(path, dict(artifacts))
        meta_path = self.meta_path_for(stage, fingerprint)
        meta_tmp = meta_path.with_suffix(f".tmp.{os.getpid()}")
        meta_tmp.write_text(
            json.dumps(dict(meta), sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
        os.replace(meta_tmp, meta_path)
        obs_metrics.active().counter("cache.stage_store", stage=stage).inc()
        obs_events.active_bus().emit(
            "cache.stage_store", stage=stage, fingerprint=fingerprint
        )
        log.debug("stage cache store", extra={"stage": stage, "path": str(path)})
        return path

    def meta(self, stage: str, fingerprint: str) -> dict:
        """One artifact's parsed sidecar; ``{}`` if missing or unreadable."""
        return _read_meta(self.meta_path_for(stage, fingerprint)) or {}

    def metas(self, stage: str | None = None) -> list[dict]:
        """Parsed sidecars, newest-path-last, optionally for one stage."""
        out: list[dict] = []
        if stage is not None:
            stages = [stage]
        elif self.root.is_dir():
            stages = sorted(p.name for p in self.root.iterdir() if p.is_dir())
        else:
            stages = []
        for name in stages:
            stage_dir = self.root / name
            if not stage_dir.is_dir():
                continue
            metas = map(_read_meta, sorted(stage_dir.glob("*.json")))
            out.extend(meta for meta in metas if meta is not None)
        return out

    def entries(self) -> list[tuple[str, str, int]]:
        """``(stage, fingerprint, size_bytes)`` of every stored artifact."""
        if not self.root.is_dir():
            return []
        return [
            (stage_dir.name, path.stem, path.stat().st_size)
            for stage_dir in sorted(p for p in self.root.iterdir() if p.is_dir())
            for path in sorted(stage_dir.glob("*.pkl"))
        ]

    def gc(self, *, clear: bool = False) -> tuple[int, int]:
        """Remove stale entries; returns ``(files_removed, bytes_reclaimed)``.

        Stale means: leftover temp files from interrupted writes,
        artifacts without a sidecar (or sidecars without an artifact),
        and entries whose sidecar records a cache format other than the
        current :data:`CACHE_FORMAT` (their fingerprints can never be
        requested again).  With ``clear=True`` everything goes.
        """
        if not self.root.is_dir():
            return 0, 0
        stale: list[Path] = []
        for stage_dir in sorted(p for p in self.root.iterdir() if p.is_dir()):
            stale.extend(stage_dir.glob("*.tmp.*"))
            pickles = {p.stem: p for p in stage_dir.glob("*.pkl")}
            sidecars = {p.stem: p for p in stage_dir.glob("*.json")}
            for stem, path in sorted(pickles.items()):
                meta_path = sidecars.get(stem)
                old = clear or meta_path is None
                if not old:
                    meta = _read_meta(meta_path)
                    old = meta is None or meta.get("format") != CACHE_FORMAT
                if old:
                    stale.append(path)
                    if meta_path is not None:
                        stale.append(meta_path)
            stale.extend(
                meta_path
                for stem, meta_path in sorted(sidecars.items())
                if stem not in pickles
            )
        return _drop_all(stale)


def _read_meta(path: Path) -> dict | None:
    """A parsed sidecar; ``None`` if missing, unreadable or not an object."""
    try:
        meta = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, OSError):
        return None
    return meta if isinstance(meta, dict) else None


class StageCacheSession:
    """One run's view of a :class:`StageStore`: fingerprints precomputed.

    The runner (:func:`repro.experiments.stages.execute_stages`) only
    sees this object: ``has(stage)`` / ``load(stage)`` /
    ``save(stage, artifacts)`` plus ``session[stage]`` for the
    fingerprint.
    """

    def __init__(
        self,
        store: StageStore,
        seed: int,
        config: ScenarioConfig | None = None,
        fingerprints: Mapping[str, str] | None = None,
    ) -> None:
        self.store = store
        self.seed = seed
        self.config = config or ScenarioConfig()
        self.fingerprints = (
            dict(fingerprints)
            if fingerprints is not None
            else stage_fingerprints(seed, self.config)
        )
        self._config_payload = _semantic_config_payload(self.config)

    def __getitem__(self, stage: str) -> str:
        return self.fingerprints[stage]

    def has(self, stage: str) -> bool:
        """Whether this run's ``stage`` entry is stored (no load)."""
        return self.store.has(stage, self.fingerprints[stage])

    def load(self, stage: str) -> dict | None:
        """The stored artifacts for this run's ``stage``, or ``None``."""
        return self.store.load(stage, self.fingerprints[stage])

    def save(self, stage: str, artifacts: Mapping) -> Path:
        """Store ``stage``'s artifacts under this run's fingerprint."""
        spec = stage_spec(stage)
        meta = {
            **_stage_payload(spec, self.seed, self._config_payload, self.fingerprints),
            "format": CACHE_FORMAT,
            "fingerprint": self.fingerprints[stage],
            "provides": list(spec.provides),
            "created_at": timestamp(),
        }
        return self.store.store(stage, self.fingerprints[stage], artifacts, meta)


@dataclass(frozen=True)
class StageExplanation:
    """Why one stage would hit or miss for a given ``(seed, config)``."""

    stage: str
    fingerprint: str
    cached: bool
    #: Human-readable invalidation causes, empty on a hit.  Shapes:
    #: ``config:<dotted.key> <old> -> <new>``, ``seed <old> -> <new>``,
    #: ``upstream:<stage>``, ``cache format <old> -> <new>``,
    #: ``algorithm version <old> -> <new>``, ``no prior artifact``.
    causes: tuple[str, ...] = ()

    def render(self) -> str:
        status = "hit " if self.cached else "MISS"
        line = f"{self.stage:<12} {status}  {self.fingerprint[:12]}"
        if self.causes:
            line += "  <- " + "; ".join(self.causes)
        return line


def _config_diffs(old: Mapping, new: Mapping) -> list[str]:
    """``config:<path> <old> -> <new>`` lines between two key subsets."""
    return [
        f"config:{path} {a!r} -> {b!r}"
        for path, (a, b) in mapping_delta(
            flatten_canonical(old), flatten_canonical(new)
        ).items()
    ]


def explain_stages(
    seed: int,
    config: ScenarioConfig | None = None,
    store: StageStore | None = None,
) -> list[StageExplanation]:
    """Per-stage hit/miss forecast for ``(seed, config)``, with causes.

    A stored entry whose sidecar records another cache format would be
    evicted on load, so it forecasts a miss with that cause.  For every
    other stage that would miss, the nearest stored sidecar of that
    stage (fewest differing dependency keys) is diffed against the
    requested configuration, naming exactly which config key — or which
    upstream stage, seed, cache format or algorithm version change —
    invalidated it.
    """
    config = config or ScenarioConfig()
    store = store or StageStore()
    fingerprints = stage_fingerprints(seed, config)
    payload = _semantic_config_payload(config)
    missed: set[str] = set()
    out: list[StageExplanation] = []
    for spec in STAGES:
        fingerprint = fingerprints[spec.name]
        if store.has(spec.name, fingerprint):
            stored_format = store.meta(spec.name, fingerprint).get("format")
            if stored_format == CACHE_FORMAT:
                out.append(StageExplanation(spec.name, fingerprint, True))
                continue
            missed.add(spec.name)
            cause = f"cache format {stored_format!r} -> {CACHE_FORMAT!r}"
            out.append(StageExplanation(spec.name, fingerprint, False, (cause,)))
            continue
        causes = [f"upstream:{p}" for p in spec.parents if p in missed]
        wanted = _stage_payload(spec, seed, payload, fingerprints)
        best: dict | None = None
        best_diffs: list[str] | None = None
        for meta in store.metas(spec.name):
            diffs = _config_diffs(meta.get("config", {}), wanted["config"])
            if meta.get("seed") != seed:
                diffs.append(f"seed {meta.get('seed')!r} -> {seed!r}")
            if meta.get("format") != CACHE_FORMAT:
                diffs.append(
                    f"cache format {meta.get('format')!r} -> {CACHE_FORMAT!r}"
                )
            if meta.get("algorithm") != ALGORITHM_VERSION:
                diffs.append(
                    f"algorithm version {meta.get('algorithm')!r} -> {ALGORITHM_VERSION!r}"
                )
            if best_diffs is None or len(diffs) < len(best_diffs):
                best, best_diffs = meta, diffs
        if best is None:
            if not causes:
                causes.append("no prior artifact")
        elif best_diffs:
            causes.extend(best_diffs)
        elif not causes:
            # Same config subset and seed but different parent chain
            # from a store state that predates the parents' artifacts.
            changed = [
                parent
                for parent in spec.parents
                if best.get("parents", {}).get(parent) != fingerprints[parent]
            ]
            causes.extend(f"upstream:{p}" for p in changed)
        missed.add(spec.name)
        out.append(StageExplanation(spec.name, fingerprint, False, tuple(causes)))
    return out


def render_explanations(explanations: list[StageExplanation]) -> str:
    """The ``repro cache explain`` report, one line per stage."""
    hits = sum(1 for e in explanations if e.cached)
    lines = [e.render() for e in explanations]
    lines.append(
        f"{hits}/{len(explanations)} stage(s) would replay from the store"
    )
    return "\n".join(lines)


def cached_run(
    seed: int = 2010,
    config: ScenarioConfig | None = None,
    *,
    cache: ScenarioCache | None = None,
    stage_store: StageStore | None = None,
) -> ScenarioRun:
    """One-call cached scenario build (the examples/benchmarks entry point)."""
    cache = cache or ScenarioCache()
    return cache.get_or_run(
        PaperScenario(seed=seed, config=config), stage_store=stage_store
    )
