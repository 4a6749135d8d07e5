"""Content-addressed on-disk caches of scenario artifacts.

Two layers share one canonical-fingerprint substrate:

* :class:`ScenarioCache` — the whole-run cache.  It keys a pickled
  :class:`~repro.experiments.scenario.ScenarioRun` by a SHA-256 over
  the ``(seed, ScenarioConfig)`` pair, so a warm load takes
  milliseconds instead of the multi-second rebuild.
* :class:`StageStore` — the incremental, per-stage artifact store.
  Each pipeline stage (see :data:`repro.experiments.stages.STAGES`)
  gets its own fingerprint covering only the config keys it declares
  plus its parents' fingerprints, chained content-address style.  A
  run replays every stage whose fingerprint is stored and recomputes
  only from the first invalidated stage down: changing the LSH
  threshold re-runs ``bcluster`` alone while the ~17-month
  observation/enrichment artifacts replay.  The whole-run cache is the
  degenerate all-hit case of this DAG.

Execution-only knobs (``executor``, ``jobs``, ``profile``, ``events``,
``progress``) are excluded from every fingerprint: all backends produce
bit-identical artifacts and telemetry sinks cannot change them, so a
run built with the process backend (or with a live event stream
attached) is a valid cache hit for a serial request of the same
scenario.

Each stage artifact is stored next to a JSON sidecar recording the
exact fingerprint payload (config subset, parent fingerprints), which
is what lets ``repro cache explain`` name the config key that
invalidated a missing stage instead of just reporting the miss.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping

from repro.experiments.scenario import PaperScenario, ScenarioConfig, ScenarioRun
from repro.experiments.stages import STAGES, StageSpec
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs.log import get_logger
from repro.util.canonical import canonicalize
from repro.util.clock import timestamp
from repro.util.validation import require

log = get_logger("experiments.cache")

#: Bump when the pickled artifact layout changes incompatibly; old
#: entries then miss instead of unpickling into stale shapes.
#: 2: ScenarioRun grew trace/metrics/manifest observability fields.
#: 3: TraceSpan grew start offsets; RunManifest grew created_at and
#:    golden_deviations (schema 2).
#: 4: ScenarioConfig grew events/progress; RunManifest grew
#:    event_summary (schema 3).
#: 5: per-stage artifact DAG — ScenarioRun grew stage_cache, RunManifest
#:    grew stage_fingerprints (schema 4), and the format now also keys
#:    every stage-level fingerprint in the StageStore.
#: 6: columnar event store — ScenarioConfig grew columnar/shards
#:    (execution-only), ClusteringConfig grew max_bucket_size,
#:    SGNetDataset carries a lazy columnar view, and the observable
#:    dataclasses moved to ``slots=True`` (incompatible pickles).
#: 7: landscape health monitor — ScenarioConfig grew windows
#:    (execution-only), ScenarioRun grew windows/health, RunManifest
#:    grew health_summary (schema 5).
#: 8: bounded-memory telemetry — ScenarioConfig grew
#:    events_max_bytes/events_backups/ring (execution-only),
#:    MetricsSnapshot grew sketches/watermarks (schema 2), RunManifest
#:    grew event_drops (schema 6).
#: 9: one execution path per kernel — ScenarioConfig lost columnar and
#:    PatternSet lost its scan memo (incompatible pickles).
#: 10: one detector engine — ScenarioRun.health is a health.Report of
#:    health.Finding (was HealthReport/HealthFinding).
CACHE_FORMAT = 10

#: ScenarioConfig fields that cannot change results, only how fast they
#: are computed or what telemetry they emit; they never contribute to
#: any fingerprint.
EXECUTION_ONLY_FIELDS = frozenset(
    {
        "executor",
        "jobs",
        "profile",
        "events",
        "events_max_bytes",
        "events_backups",
        "ring",
        "progress",
        "shards",
        "windows",
    }
)

#: Canonical-JSON reduction (shared with the run manifest's digests).
_canonical = canonicalize


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
    return _digest({"format": CACHE_FORMAT, "seed": seed, "config": payload})


def _stage_payload(
    spec: StageSpec, seed: int, config_payload: Mapping, fingerprints: Mapping[str, str]
) -> dict:
    """The exact content a stage's fingerprint hashes (also the sidecar)."""
    return {
        "format": CACHE_FORMAT,
        "stage": spec.name,
        "seed": seed,
        "config": {key: config_payload.get(key) for key in spec.config_keys},
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
    """Pickle store of built runs, addressed by scenario fingerprint."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_root()
        self.hits = 0
        self.misses = 0

    def path_for(self, seed: int, config: ScenarioConfig | None = None) -> Path:
        """On-disk location of the ``(seed, config)`` artifact."""
        return self.root / f"{scenario_fingerprint(seed, config)}.pkl"

    def load(self, seed: int, config: ScenarioConfig | None = None) -> ScenarioRun | None:
        """Return the cached run, or ``None`` on a miss.

        Unreadable entries (truncated writes, artifacts pickled by an
        incompatible code version) are treated as misses and evicted.
        """
        registry = obs_metrics.active()
        bus = obs_events.active_bus()
        path = self.path_for(seed, config)
        try:
            with path.open("rb") as handle:
                run = pickle.load(handle)
        except FileNotFoundError:
            self.misses += 1
            registry.counter("cache.miss").inc()
            bus.emit("cache.miss", fingerprint=path.stem)
            log.debug("cache miss", extra={"path": str(path)})
            return None
        except (pickle.UnpicklingError, EOFError, AttributeError, ImportError, TypeError):
            path.unlink(missing_ok=True)
            self.misses += 1
            registry.counter("cache.miss").inc()
            registry.counter("cache.evict").inc()
            bus.emit("cache.evict", fingerprint=path.stem, reason="unreadable")
            bus.emit("cache.miss", fingerprint=path.stem)
            log.warning("evicted unreadable cache entry", extra={"path": str(path)})
            return None
        if not isinstance(run, ScenarioRun):
            path.unlink(missing_ok=True)
            self.misses += 1
            registry.counter("cache.miss").inc()
            registry.counter("cache.evict").inc()
            bus.emit("cache.evict", fingerprint=path.stem, reason="not-a-run")
            bus.emit("cache.miss", fingerprint=path.stem)
            log.warning("evicted non-run cache entry", extra={"path": str(path)})
            return None
        self.hits += 1
        registry.counter("cache.hit").inc()
        bus.emit("cache.hit", fingerprint=path.stem)
        log.debug("cache hit", extra={"path": str(path)})
        return run

    def store(self, run: ScenarioRun) -> Path:
        """Persist ``run`` under its fingerprint; returns the path.

        The write goes through a same-directory temp file and an atomic
        rename, so concurrent readers never observe a torn artifact.
        """
        require(isinstance(run, ScenarioRun), "can only cache ScenarioRun artifacts")
        path = self.path_for(run.seed, run.config)
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        with tmp.open("wb") as handle:
            pickle.dump(run, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
        obs_metrics.active().counter("cache.store").inc()
        obs_events.active_bus().emit("cache.store", fingerprint=path.stem)
        log.debug("cache store", extra={"path": str(path)})
        return path

    def get_or_run(
        self, scenario: PaperScenario, *, stage_store: "StageStore | None" = None
    ) -> ScenarioRun:
        """Cached run for ``scenario``, building and storing on a miss.

        With a ``stage_store`` the rebuild goes through the incremental
        stage DAG, so a whole-run miss still replays every stage whose
        fingerprint is stored — the partially-warm path.
        """
        cached = self.load(scenario.seed, scenario.config)
        if cached is not None:
            return cached
        run = scenario.run(stage_store=stage_store)
        self.store(run)
        return run

    def entries(self) -> list[tuple[str, int]]:
        """``(fingerprint, size_bytes)`` of every stored whole-run pickle."""
        if not self.root.is_dir():
            return []
        return sorted(
            (path.stem, path.stat().st_size)
            for path in self.root.glob("*.pkl")
        )

    def clear(self) -> int:
        """Delete every cached whole-run artifact; returns the number removed."""
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.pkl"):
                path.unlink(missing_ok=True)
                removed += 1
        return removed


class StageStore:
    """Per-stage artifact store: ``<root>/<stage>/<fingerprint>.pkl``.

    Every artifact has a JSON sidecar carrying the exact fingerprint
    payload (cache format, config subset, parent fingerprints) plus
    bookkeeping (provides, created_at) — the raw material of
    :func:`explain_stages` and ``repro cache {ls,gc,explain}``.
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

    def load(self, stage: str, fingerprint: str) -> dict | None:
        """The stage's artifact dict, or ``None`` on a miss.

        Unreadable or non-dict entries are evicted (sidecar included)
        and treated as misses, like the whole-run cache.
        """
        registry = obs_metrics.active()
        bus = obs_events.active_bus()
        path = self.path_for(stage, fingerprint)
        try:
            with path.open("rb") as handle:
                artifacts = pickle.load(handle)
        except FileNotFoundError:
            artifacts = None
        except (pickle.UnpicklingError, EOFError, AttributeError, ImportError, TypeError):
            path.unlink(missing_ok=True)
            self.meta_path_for(stage, fingerprint).unlink(missing_ok=True)
            registry.counter("cache.evict").inc()
            bus.emit("cache.evict", fingerprint=fingerprint, stage=stage, reason="unreadable")
            log.warning("evicted unreadable stage artifact", extra={"path": str(path)})
            artifacts = None
        if artifacts is not None and not isinstance(artifacts, dict):
            path.unlink(missing_ok=True)
            self.meta_path_for(stage, fingerprint).unlink(missing_ok=True)
            registry.counter("cache.evict").inc()
            bus.emit("cache.evict", fingerprint=fingerprint, stage=stage, reason="not-a-dict")
            log.warning("evicted non-dict stage artifact", extra={"path": str(path)})
            artifacts = None
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

    def store(
        self, stage: str, fingerprint: str, artifacts: Mapping, meta: Mapping
    ) -> Path:
        """Persist one stage's artifacts + sidecar atomically; returns the path."""
        require(isinstance(artifacts, Mapping), "stage artifacts must be a mapping")
        path = self.path_for(stage, fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        with tmp.open("wb") as handle:
            pickle.dump(dict(artifacts), handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
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
            for meta_path in sorted(stage_dir.glob("*.json")):
                try:
                    meta = json.loads(meta_path.read_text(encoding="utf-8"))
                except (json.JSONDecodeError, OSError):
                    continue
                if isinstance(meta, dict):
                    out.append(meta)
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
        removed = 0
        reclaimed = 0
        if not self.root.is_dir():
            return removed, reclaimed

        def drop(path: Path) -> None:
            nonlocal removed, reclaimed
            try:
                reclaimed += path.stat().st_size
            except OSError:
                pass
            path.unlink(missing_ok=True)
            removed += 1

        for stage_dir in sorted(p for p in self.root.iterdir() if p.is_dir()):
            for tmp in stage_dir.glob("*.tmp.*"):
                drop(tmp)
            pickles = {p.stem: p for p in stage_dir.glob("*.pkl")}
            sidecars = {p.stem: p for p in stage_dir.glob("*.json")}
            for stem, path in sorted(pickles.items()):
                meta_path = sidecars.get(stem)
                stale = clear or meta_path is None
                if not stale and meta_path is not None:
                    try:
                        meta = json.loads(meta_path.read_text(encoding="utf-8"))
                        stale = meta.get("format") != CACHE_FORMAT
                    except (json.JSONDecodeError, OSError):
                        stale = True
                if stale:
                    drop(path)
                    if meta_path is not None:
                        drop(meta_path)
            for stem, meta_path in sorted(sidecars.items()):
                if meta_path.exists() and stem not in pickles:
                    drop(meta_path)
        return removed, reclaimed


class StageCacheSession:
    """One run's view of a :class:`StageStore`: fingerprints precomputed.

    The runner (:func:`repro.experiments.stages.execute_stages`) only
    sees this object: ``load(stage)`` / ``save(stage, artifacts)`` plus
    ``session[stage]`` for the fingerprint.
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

    def load(self, stage: str) -> dict | None:
        """The stored artifacts for this run's ``stage``, or ``None``."""
        return self.store.load(stage, self.fingerprints[stage])

    def save(self, stage: str, artifacts: Mapping) -> Path:
        """Store ``stage``'s artifacts under this run's fingerprint."""
        spec = next(s for s in STAGES if s.name == stage)
        meta = {
            **_stage_payload(spec, self.seed, self._config_payload, self.fingerprints),
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
    #: ``no prior artifact``.
    causes: tuple[str, ...] = ()

    def render(self) -> str:
        status = "hit " if self.cached else "MISS"
        line = f"{self.stage:<12} {status}  {self.fingerprint[:12]}"
        if self.causes:
            line += "  <- " + "; ".join(self.causes)
        return line


def _flatten_config(value: object, prefix: str = "") -> Iterator[tuple[str, object]]:
    """Dotted leaf paths of a canonical config payload (type tags skipped)."""
    if isinstance(value, Mapping):
        for key, sub in value.items():
            if key == "__type__":
                continue
            yield from _flatten_config(sub, f"{prefix}.{key}" if prefix else str(key))
    else:
        yield prefix, value


def _config_diffs(old: Mapping, new: Mapping) -> list[str]:
    """``config:<path> <old> -> <new>`` lines between two key subsets."""
    flat_old = dict(_flatten_config(old))
    flat_new = dict(_flatten_config(new))
    lines = []
    for path in sorted(set(flat_old) | set(flat_new)):
        a, b = flat_old.get(path), flat_new.get(path)
        if a != b:
            lines.append(f"config:{path} {a!r} -> {b!r}")
    return lines


def explain_stages(
    seed: int,
    config: ScenarioConfig | None = None,
    store: StageStore | None = None,
) -> list[StageExplanation]:
    """Per-stage hit/miss forecast for ``(seed, config)``, with causes.

    For every stage that would miss, the nearest stored sidecar of that
    stage (fewest differing dependency keys) is diffed against the
    requested configuration, naming exactly which config key — or which
    upstream stage, seed or cache-format change — invalidated it.
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
            out.append(StageExplanation(spec.name, fingerprint, True))
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
