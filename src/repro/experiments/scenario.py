"""The end-to-end paper-scale scenario.

:class:`PaperScenario` is the one-call entry point of the reproduction:
it builds the deployment, generates the synthetic landscape, observes it
through the honeypot pipeline, enriches the dataset (AV + sandbox), and
runs both clustering perspectives.  The result, a :class:`ScenarioRun`,
carries every artifact the per-table/figure drivers need.

The default configuration targets the paper's observation period (74
weeks, January 2008 - May 2009) and deployment footprint (30 network
locations x 5 monitored addresses); ``scale`` shrinks the landscape for
fast tests while preserving its shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.epm import EPMResult
from repro.core.invariants import InvariantPolicy
from repro.egpm.dataset import SGNetDataset
from repro.enrich.pipeline import EnrichmentPipeline
from repro.enrich.virustotal import VirusTotalService
from repro.experiments.catalog import Catalog
from repro.experiments.stages import RUN_KEYS, StageContext, execute_stages
from repro.honeypot.deployment import DeploymentConfig, SGNetDeployment
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs.health import Report, evaluate_health
from repro.obs.log import get_logger
from repro.obs.manifest import RunManifest, build_manifest
from repro.obs.metrics import MetricsRegistry, MetricsSnapshot
from repro.obs.trace import Tracer, TraceSpan, use_tracer
from repro.obs.windows import WindowReport, build_window_report
from repro.sandbox.anubis import AnubisService
from repro.sandbox.clustering import BehaviorClustering, ClusteringConfig
from repro.sandbox.execution import SandboxConfig
from repro.util.pickling import gc_paused
from repro.util.rng import RandomSource
from repro.util.timegrid import WEEK_SECONDS, TimeGrid
from repro.util.validation import require

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.experiments.cache import StageStore

log = get_logger("experiments.scenario")


@dataclass(frozen=True)
class ScenarioConfig:
    """Scenario-level knobs.

    ``events``, ``progress`` and ``windows`` are *execution-only*
    knobs: they cannot change any artifact, so they are excluded from
    the scenario cache fingerprint
    (:func:`repro.experiments.cache.scenario_fingerprint`).
    """

    n_weeks: int = 74
    scale: float = 1.0
    deployment: DeploymentConfig = field(default_factory=DeploymentConfig)
    invariant_policy: InvariantPolicy = field(default_factory=InvariantPolicy)
    clustering: ClusteringConfig = field(default_factory=ClusteringConfig)
    sandbox: SandboxConfig = field(default_factory=SandboxConfig)
    #: Write the live pipeline event stream (JSON lines) to this path.
    #: Execution-only: the stream is pure telemetry and cannot change
    #: any artifact.  Ignored when the caller already activated a
    #: recording event bus (the CLI does).
    events: str | None = None
    #: Print a line per run start, stage finish and run finish to
    #: stderr while the pipeline runs.  Execution-only, off by default.
    progress: bool = False
    #: Width, in weeks, of the landscape-telemetry windows folded after
    #: the pipeline (0 = no windowed telemetry).  Execution-only: the
    #: window report is derived *from* the artifacts and cannot change
    #: them, so every setting shares one cache fingerprint.
    windows: int = 4

    def __post_init__(self) -> None:
        require(self.n_weeks >= 4, "scenario needs at least 4 weeks")
        require(self.scale > 0, "scale must be positive")
        require(self.windows >= 0, "windows must be >= 0 (0 = no windowed telemetry)")


@dataclass
class ScenarioRun:
    """Every artifact of one full pipeline run."""

    config: ScenarioConfig
    seed: int
    grid: TimeGrid
    catalog: Catalog
    deployment: SGNetDeployment
    dataset: SGNetDataset
    anubis: AnubisService
    virustotal: VirusTotalService
    enrichment: EnrichmentPipeline
    epm: EPMResult
    bclusters: BehaviorClustering
    #: Root of the hierarchical span tree recorded while building.
    trace: TraceSpan | None = None
    #: Frozen metric snapshot of the build (counters/gauges/sketches).
    metrics: MetricsSnapshot | None = None
    #: The run's receipt: fingerprint, span tree, metrics, digests.
    manifest: RunManifest | None = None
    #: Per-stage cache disposition of the build: stage name ->
    #: ``"hit"`` (replayed from the stage store), ``"miss"`` (computed
    #: and stored) or ``"off"`` (computed, no store consulted).
    stage_cache: dict[str, str] = field(default_factory=dict)
    #: Per-window landscape telemetry (``None`` with ``windows=0``).
    windows: WindowReport | None = None
    #: The run's SLO/health evaluation against the default rule set.
    health: Report | None = None

    def headline(self) -> dict[str, int]:
        """The §4/§4.1 headline numbers of this run."""
        counts = self.epm.counts()
        return {
            "events": len(self.dataset),
            "samples_collected": self.dataset.n_samples,
            "samples_executed": self.anubis.n_reports,
            "e_clusters": counts["e_clusters"],
            "p_clusters": counts["p_clusters"],
            "m_clusters": counts["m_clusters"],
            "b_clusters": self.bclusters.n_clusters,
            "size1_b_clusters": len(self.bclusters.singletons()),
        }


class PaperScenario:
    """Configured, reproducible end-to-end run of the whole stack."""

    def __init__(self, seed: int = 2010, config: ScenarioConfig | None = None) -> None:
        self.seed = seed
        self.config = config or ScenarioConfig()

    @gc_paused()
    def run(self, *, stage_store: "StageStore | None" = None) -> ScenarioRun:
        """Execute the full pipeline and return all artifacts.

        The pipeline is the stage DAG of
        :data:`repro.experiments.stages.STAGES`; with a ``stage_store``
        every stage whose content-addressed fingerprint is already
        stored replays (loading only the entries the run reads, see
        :func:`~repro.experiments.stages.replay_plan`), and only stages
        downstream of the first invalidated dependency recompute —
        cold, warm and partially-warm runs produce bit-identical
        artifacts.

        Every stage runs in the calling thread.  The whole build is
        traced: every stage becomes a span in ``run.trace`` (with nested
        spans from the LSH and enrichment layers) carrying its cache
        disposition, metrics from every instrumented layer land in
        ``run.metrics``, and ``run.manifest`` records the config
        fingerprint, per-stage fingerprints and artifact digests.  If
        the caller already activated a metrics registry, counters
        accumulate there; otherwise the run records into its own fresh
        registry.  The cyclic GC is paused for the whole call (stage
        computes, stage replays and the manifest; see
        :func:`~repro.util.pickling.gc_paused`).
        """
        # Deferred import: cache imports this module at top level.
        from repro.experiments.cache import (
            StageCacheSession,
            scenario_fingerprint,
            stage_fingerprints,
        )

        registry = obs_metrics.active()
        if not registry.recording:
            registry = MetricsRegistry()
        bus = obs_events.active_bus()
        owns_bus = not bus.recording
        if owns_bus:
            bus = obs_events.open_bus(
                self.config.events, progress=self.config.progress
            )
        tracer = Tracer("scenario")
        log.info(
            "scenario starting",
            extra={
                "seed": self.seed,
                "weeks": self.config.n_weeks,
                "scale": self.config.scale,
            },
        )
        # The bus may be session-scoped (the CLI installs one around the
        # cache layer too), so the manifest's event summary is the
        # *delta* emitted by this run, not the session totals.
        counts_before = bus.summary() if bus.recording else {}
        fingerprint = scenario_fingerprint(self.seed, self.config)
        fingerprints = stage_fingerprints(self.seed, self.config)
        session = (
            StageCacheSession(stage_store, self.seed, self.config, fingerprints)
            if stage_store is not None
            else None
        )
        with obs_metrics.use(registry), use_tracer(tracer), obs_events.use_bus(bus):
            bus.emit(
                "run.start",
                seed=self.seed,
                weeks=self.config.n_weeks,
                scale=self.config.scale,
            )
            ctx = StageContext(
                seed=self.seed,
                config=self.config,
                grid=TimeGrid(0, self.config.n_weeks * WEEK_SECONDS),
                source=RandomSource(self.seed),
            )
            stage_cache = execute_stages(ctx, tracer, session=session)
            window_report: WindowReport | None = None
            if self.config.windows > 0:
                # The windowed fold is derived telemetry, not a pipeline
                # stage: it reads the finished artifacts, so it sits
                # after the DAG and is never cached (cache="off").
                with tracer.span("windows") as span:
                    window_report = build_window_report(
                        ctx["dataset"],
                        ctx["epm"],
                        ctx["bclusters"],
                        ctx.grid,
                        seed=self.seed,
                        fingerprint=fingerprint,
                        window_weeks=self.config.windows,
                    )
                    span.set(cache="off", windows=window_report.n_windows)
                    self._emit_window_telemetry(registry, bus, window_report)
                crossview_summary = window_report.crossview
            else:
                from repro.analysis.crossview import CrossView

                crossview_summary = CrossView(
                    ctx["dataset"], ctx["epm"], ctx["bclusters"]
                ).summary()
            for name in sorted(crossview_summary):
                registry.gauge(f"crossview.{name}").set(crossview_summary[name])

        root = tracer.finish()
        run = ScenarioRun(
            config=self.config,
            seed=self.seed,
            grid=ctx.grid,
            **{key: ctx[key] for key in RUN_KEYS},
            trace=root,
            metrics=registry.snapshot(),
            stage_cache=stage_cache,
            windows=window_report,
        )
        from repro.experiments.regression import check_headline

        headline = run.headline()
        deviations = check_headline(headline)
        for deviation in deviations:
            bus.emit("golden.deviation", detail=deviation)
        # Health is judged on what the run just recorded: the metric
        # snapshot, its own golden deviations and the window series.
        health = evaluate_health(
            {"metrics": run.metrics.as_dict(), "golden_deviations": deviations},
            window_report.as_dict() if window_report is not None else None,
        )
        run.health = health
        for finding in health.findings:
            registry.counter("health.findings", severity=finding.severity).inc()
            bus.emit(
                "health.finding",
                rule=finding.rule,
                severity=finding.severity,
                target=finding.target,
                value=finding.value,
                window=finding.window,
            )
        bus.emit(
            "health.summary", rules=health.rules_evaluated, **health.summary()
        )
        bus.emit("run.finish", seconds=round(root.seconds, 6), **headline)
        # The bus's inter-arrival sketch is merged before the final
        # snapshot, so the manifest's metrics carry it.
        event_summary = None
        if bus.recording:
            event_summary = {
                kind: count - counts_before.get(kind, 0)
                for kind, count in bus.summary().items()
                if count - counts_before.get(kind, 0) > 0
            }
            interarrival = bus.interarrival()
            if interarrival.get("count"):
                registry.sketch("events.interarrival").merge(interarrival)
        # Re-snapshot so the manifest's metrics include health.findings
        # and the inter-arrival sketch just merged.
        run.metrics = registry.snapshot()
        run.manifest = build_manifest(
            run,
            fingerprint=fingerprint,
            events=event_summary,
            stages=fingerprints,
            health=health.summary(),
        )
        if owns_bus:
            bus.close()
        log.info(
            "scenario finished",
            extra={"seconds": round(root.seconds, 3), **headline},
        )
        return run

    @staticmethod
    def _emit_window_telemetry(registry, bus, report: WindowReport) -> None:
        """Mirror a window report onto the metric registry and event bus.

        One ``window.rollup`` event per window carries every series
        value (what ``repro obs dashboard --follow`` folds back into a
        live view); the gauges/sketch make the windowed shape
        visible in plain metric snapshots and ``obs diff``.
        """
        registry.gauge("window.count").set(report.n_windows)
        registry.gauge("window.weeks").set(report.window_weeks)
        per_window_events = registry.sketch("window.events")
        for value in report.series["events"]:
            per_window_events.observe(value)
        for window in range(report.n_windows):
            bus.emit(
                "window.rollup",
                window=window,
                fingerprint=report.fingerprint,
                seed=report.seed,
                window_weeks=report.window_weeks,
                n_windows=report.n_windows,
                **report.window_row(window),
            )


def config_from_canonical(payload) -> ScenarioConfig:
    """Rebuild a :class:`ScenarioConfig` from its canonicalized form.

    Stored run manifests keep the config as the ``__type__``-tagged
    maps :func:`repro.util.canonical.canonicalize` produces; this is
    the inverse for the known config dataclasses, so a stored run can
    be replayed (``repro model export --run``) without re-specifying
    its flags.  Unknown ``__type__`` names fail loudly rather than
    silently dropping config.
    """
    import dataclasses as _dataclasses

    from repro.honeypot.shellcode import ShellcodeConfig

    known = {
        cls.__name__: cls
        for cls in (
            ScenarioConfig,
            DeploymentConfig,
            ShellcodeConfig,
            InvariantPolicy,
            ClusteringConfig,
            SandboxConfig,
        )
    }

    def rebuild(value):
        if isinstance(value, dict):
            name = value.get("__type__")
            require(name is not None, f"config payload has no __type__: {value!r}")
            cls = known.get(name)
            require(cls is not None, f"unknown config dataclass {name!r}")
            names = {f.name for f in _dataclasses.fields(cls)}
            return cls(
                **{k: rebuild(v) for k, v in value.items() if k in names}
            )
        if isinstance(value, list):
            return tuple(rebuild(v) for v in value)
        return value

    config = rebuild(payload)
    require(
        isinstance(config, ScenarioConfig),
        f"canonical payload is a {type(config).__name__}, not a ScenarioConfig",
    )
    return config
