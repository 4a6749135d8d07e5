"""The per-stage artifact DAG of the paper pipeline.

The end-to-end scenario is a fixed topological order of expensive
stages (deployment → catalog → observe → enrich → epm / bcluster).
Each :class:`StageSpec` declares, explicitly, everything that can
change the stage's output:

* ``config_keys`` — the :class:`~repro.experiments.scenario.ScenarioConfig`
  fields the stage reads (plus the master seed, which every stage
  depends on through its named RNG substream);
* ``parents`` — the upstream stages whose artifacts it consumes;
* ``provides`` — the context keys the stage produces (or mutates: the
  ``observe`` stage re-provides ``deployment`` because observation
  trains the sensor FSMs, and ``enrich`` re-provides ``dataset``
  because enrichment annotates records in place).

That declaration is what the incremental cache layer
(:mod:`repro.experiments.cache`) fingerprints: a stage's content
address covers its config subset and its parents' fingerprints, so a
changed LSH threshold re-keys ``bcluster`` alone while
``deployment``/``catalog``/``observe``/``enrich``/``epm`` replay from
the stage store.  :func:`execute_stages` is the runner both the cold
and the incremental paths share — replay and recompute are the same
loop, so cold, warm and partially-warm runs produce bit-identical
artifacts by construction (the determinism matrix in
``tests/experiments/test_stage_cache.py`` enforces it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.core.epm import EPMClustering
from repro.enrich.pipeline import EnrichmentPipeline
from repro.enrich.virustotal import VirusTotalService
from repro.experiments.catalog import build_catalog
from repro.honeypot.deployment import SGNetDeployment
from repro.malware.landscape import LandscapeGenerator
from repro.obs import events as obs_events
from repro.obs.log import get_logger
from repro.sandbox.anubis import AnubisService
from repro.sandbox.execution import Sandbox
from repro.util.rng import RandomSource
from repro.util.timegrid import TimeGrid
from repro.util.validation import require

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.experiments.scenario import ScenarioConfig
    from repro.obs.trace import Tracer
    from repro.util.parallel import Executor

log = get_logger("experiments.stages")

#: Span attribute values for a stage's cache disposition: replayed from
#: the stage store, recomputed under an active store, or computed with
#: no store consulted at all.
CACHE_STATUSES = ("hit", "miss", "off")


@dataclass
class StageContext:
    """Everything a stage compute function may read or extend."""

    seed: int
    config: "ScenarioConfig"
    grid: TimeGrid
    source: RandomSource
    executor: "Executor"
    artifacts: dict[str, object] = field(default_factory=dict)

    def __getitem__(self, key: str) -> object:
        return self.artifacts[key]


@dataclass(frozen=True)
class StageSpec:
    """One node of the pipeline DAG: dependencies in, artifacts out."""

    name: str
    #: ScenarioConfig field names this stage's output depends on.
    config_keys: tuple[str, ...]
    #: Upstream stages whose artifacts this stage consumes.
    parents: tuple[str, ...]
    #: Context keys this stage produces (the stored artifact payload).
    provides: tuple[str, ...]
    #: Builds the stage's artifacts into ``ctx.artifacts``.
    compute: Callable[[StageContext], None]
    #: Sets descriptive span attributes from the (built or replayed)
    #: artifacts — runs on both the compute and the replay path.
    annotate: Callable[[StageContext, object], None]


def _compute_deployment(ctx: StageContext) -> None:
    ctx.artifacts["deployment"] = SGNetDeployment(
        ctx.source.child("deployment"), ctx.config.deployment
    )


def _annotate_deployment(ctx: StageContext, span) -> None:
    span.set(sensors=len(ctx["deployment"].sensors))


def _compute_catalog(ctx: StageContext) -> None:
    ctx.artifacts["catalog"] = build_catalog(
        ctx.source.child("catalog"),
        ctx.grid,
        ctx["deployment"].sensor_networks,
        scale=ctx.config.scale,
    )


def _annotate_catalog(ctx: StageContext, span) -> None:
    span.set(families=len(ctx["catalog"].families))


def _compute_observe(ctx: StageContext) -> None:
    generator = LandscapeGenerator(
        ctx["catalog"].families,
        ctx["deployment"].sensor_addresses,
        ctx.grid,
        ctx.source.child("landscape"),
    )
    ctx.artifacts["dataset"] = ctx["deployment"].observe(generator)
    log.debug("observation done", extra={"events": len(ctx["dataset"])})


def _annotate_observe(ctx: StageContext, span) -> None:
    span.set(events=len(ctx["dataset"]), samples=ctx["dataset"].n_samples)


def _compute_enrich(ctx: StageContext) -> None:
    sandbox = Sandbox(ctx["catalog"].environment, ctx.config.sandbox)
    anubis = AnubisService(sandbox)
    virustotal = VirusTotalService()
    enrichment = EnrichmentPipeline(anubis, virustotal)
    enrichment.enrich(ctx["dataset"], executor=ctx.executor)
    ctx.artifacts.update(
        anubis=anubis, virustotal=virustotal, enrichment=enrichment
    )


def _annotate_enrich(ctx: StageContext, span) -> None:
    span.set(**ctx["enrichment"].stats())


def _compute_epm(ctx: StageContext) -> None:
    epm = EPMClustering(policy=ctx.config.invariant_policy).fit(ctx["dataset"])
    ctx.artifacts["epm"] = epm
    bus = obs_events.active_bus()
    counts = epm.counts()
    for perspective in ("e", "p", "m"):
        bus.emit(
            "cluster.milestone",
            perspective=perspective,
            clusters=counts[f"{perspective}_clusters"],
        )


def _annotate_epm(ctx: StageContext, span) -> None:
    span.set(**ctx["epm"].counts())


def _compute_bcluster(ctx: StageContext) -> None:
    bclusters = ctx["anubis"].cluster(ctx.config.clustering)
    ctx.artifacts["bclusters"] = bclusters
    obs_events.active_bus().emit(
        "cluster.milestone", perspective="b", clusters=bclusters.n_clusters
    )


def _annotate_bcluster(ctx: StageContext, span) -> None:
    span.set(
        clusters=ctx["bclusters"].n_clusters,
        candidate_pairs=ctx["bclusters"].n_candidate_pairs,
    )


#: The pipeline DAG in topological order.  ``config_keys`` subsets plus
#: the seed are exactly what each stage's cache fingerprint covers —
#: the dependency-key table in ``docs/ARCHITECTURE.md`` mirrors this
#: tuple, and the invalidation-matrix test asserts it key by key.
STAGES: tuple[StageSpec, ...] = (
    StageSpec(
        name="deployment",
        config_keys=("deployment",),
        parents=(),
        provides=("deployment",),
        compute=_compute_deployment,
        annotate=_annotate_deployment,
    ),
    StageSpec(
        name="catalog",
        config_keys=("n_weeks", "scale"),
        parents=("deployment",),
        provides=("catalog",),
        compute=_compute_catalog,
        annotate=_annotate_catalog,
    ),
    StageSpec(
        name="observe",
        config_keys=("n_weeks",),
        parents=("deployment", "catalog"),
        provides=("dataset", "deployment"),
        compute=_compute_observe,
        annotate=_annotate_observe,
    ),
    StageSpec(
        name="enrich",
        config_keys=("sandbox",),
        parents=("catalog", "observe"),
        provides=("dataset", "anubis", "virustotal", "enrichment"),
        compute=_compute_enrich,
        annotate=_annotate_enrich,
    ),
    StageSpec(
        name="epm",
        config_keys=("invariant_policy",),
        parents=("enrich",),
        provides=("epm",),
        compute=_compute_epm,
        annotate=_annotate_epm,
    ),
    StageSpec(
        name="bcluster",
        config_keys=("clustering",),
        parents=("enrich",),
        provides=("bclusters",),
        compute=_compute_bcluster,
        annotate=_annotate_bcluster,
    ),
)

STAGE_NAMES: tuple[str, ...] = tuple(spec.name for spec in STAGES)

_BY_NAME: dict[str, StageSpec] = {spec.name: spec for spec in STAGES}


def stage_spec(name: str) -> StageSpec:
    """The :class:`StageSpec` registered under ``name``."""
    require(name in _BY_NAME, f"unknown pipeline stage {name!r}")
    return _BY_NAME[name]


def downstream_of(name: str) -> frozenset[str]:
    """``name`` plus every stage reachable from it through ``parents``."""
    affected = {stage_spec(name).name}
    for spec in STAGES:
        if any(parent in affected for parent in spec.parents):
            affected.add(spec.name)
    return frozenset(affected)


def _check_topology() -> None:
    seen: set[str] = set()
    for spec in STAGES:
        for parent in spec.parents:
            require(
                parent in seen,
                f"stage {spec.name!r} lists parent {parent!r} before it is defined",
            )
        require(spec.name not in seen, f"duplicate stage {spec.name!r}")
        seen.add(spec.name)


_check_topology()


def execute_stages(
    ctx: StageContext, tracer: "Tracer", session=None
) -> dict[str, str]:
    """Drive the DAG top to bottom; returns each stage's cache status.

    With no ``session`` every stage computes (status ``"off"``).  With
    one, each stage first asks the session for the artifact stored
    under its fingerprint: a hit replays the pickled artifacts into the
    context (the session emits ``cache.stage_hit``); a miss computes
    and stores them.  Because a stage's fingerprint chains over its
    parents' fingerprints, the first invalidated stage automatically
    invalidates everything downstream of it — the loop needs no
    explicit cascade.

    Every stage opens a span either way, carrying a ``cache`` attribute
    (``hit``/``miss``/``off``) and its descriptive artifact attributes,
    so warm and cold manifests expose the same stage structure.
    """
    statuses: dict[str, str] = {}
    for spec in STAGES:
        with tracer.span(spec.name) as span:
            loaded = session.load(spec.name) if session is not None else None
            if loaded is not None:
                ctx.artifacts.update(loaded)
                status = "hit"
            else:
                spec.compute(ctx)
                status = "off" if session is None else "miss"
                if session is not None:
                    session.save(
                        spec.name,
                        {key: ctx.artifacts[key] for key in spec.provides},
                    )
            span.set(cache=status)
            if session is not None:
                span.set(fingerprint=session[spec.name][:12])
            spec.annotate(ctx, span)
            statuses[spec.name] = status
    return statuses
