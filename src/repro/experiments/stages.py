"""The per-stage artifact DAG of the paper pipeline.

The end-to-end scenario is a fixed topological order of expensive
stages (deployment → catalog → observe → enrich → epm / bgraph →
bcluster).  Each :class:`StageSpec` declares, explicitly, everything
that can change the stage's output:

* ``config_keys`` — the :class:`~repro.experiments.scenario.ScenarioConfig`
  fields the stage reads (plus the master seed, which every stage
  depends on through its named RNG substream); a dotted key such as
  ``clustering.bands`` names one field of a nested config;
* ``parents`` — the upstream stages whose artifacts it consumes;
* ``provides`` — the context keys the stage produces (or mutates: the
  ``observe`` stage re-provides ``deployment`` because observation
  trains the sensor FSMs, and ``enrich`` re-provides ``dataset``
  because enrichment annotates records in place).  ``enrich`` also
  re-provides ``deployment`` and ``catalog``, so its stored entry holds
  the whole upstream context the run and the leaf stages read.

That declaration is what the incremental cache layer
(:mod:`repro.experiments.cache`) fingerprints: a stage's content
address covers its config subset and its parents' fingerprints, so a
changed LSH threshold re-keys ``bcluster`` alone while every other
stage replays from the stage store.  B-clustering is split at the
threshold for that reason: ``bgraph`` holds the threshold-free LSH
similarity graph (it declares every clustering field but the
threshold) and ``bcluster`` is its cut, so a threshold change costs a
graph load and a union-find pass, not the MinHash/LSH work.

:func:`execute_stages` is the runner both the cold and the
incremental paths share — replay and recompute are the same loop, so
cold, warm and partially-warm runs produce bit-identical artifacts by
construction (the determinism matrix in
``tests/experiments/test_stage_cache.py`` enforces it).  A replay
reads only the stored entries :func:`replay_plan` picks: a replay
through ``enrich`` loads ``enrich``, ``epm`` and ``bcluster`` and
skips the three upstream entries whose keys ``enrich`` re-provides
(and ``bgraph``, which the run itself never reads); a threshold change
loads ``enrich``, ``epm`` and ``bgraph``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Collection

from repro.core.epm import EPMClustering
from repro.enrich.pipeline import EnrichmentPipeline
from repro.enrich.virustotal import VirusTotalService
from repro.experiments.catalog import build_catalog
from repro.honeypot.deployment import SGNetDeployment
from repro.malware.landscape import LandscapeGenerator
from repro.obs import events as obs_events
from repro.obs.log import get_logger
from repro.sandbox.anubis import AnubisService
from repro.sandbox.clustering import cut, similarity_graph
from repro.sandbox.execution import Sandbox
from repro.util.rng import RandomSource
from repro.util.timegrid import TimeGrid
from repro.util.validation import require

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.experiments.scenario import ScenarioConfig
    from repro.obs.trace import Tracer

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
    enrichment.enrich(ctx["dataset"])
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


def _compute_bgraph(ctx: StageContext) -> None:
    ctx.artifacts["bgraph"] = similarity_graph(
        ctx["anubis"].profiles(), ctx.config.clustering
    )


def _annotate_bgraph(ctx: StageContext, span) -> None:
    # A whole-run replay skips the graph's entry; the clustering carries
    # the same count.
    graph = ctx.artifacts.get("bgraph")
    span.set(
        candidate_pairs=graph.n_pairs
        if graph is not None
        else ctx["bclusters"].n_candidate_pairs
    )


def _compute_bcluster(ctx: StageContext) -> None:
    bclusters = cut(ctx["bgraph"], ctx.config.clustering.threshold)
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
#: the seed are exactly what each stage's cache fingerprint covers (a
#: dotted key names one field of a nested config) —
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
        provides=(
            "dataset",
            "anubis",
            "virustotal",
            "enrichment",
            "deployment",
            "catalog",
        ),
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
        name="bgraph",
        # Every ClusteringConfig field but the threshold, which only the
        # cut reads.
        config_keys=(
            "clustering.bands",
            "clustering.rows",
            "clustering.minhash_seed",
            "clustering.max_bucket_size",
        ),
        parents=("enrich",),
        provides=("bgraph",),
        compute=_compute_bgraph,
        annotate=_annotate_bgraph,
    ),
    StageSpec(
        name="bcluster",
        config_keys=("clustering",),
        parents=("bgraph",),
        provides=("bclusters",),
        compute=_compute_bcluster,
        annotate=_annotate_bcluster,
    ),
)

STAGE_NAMES: tuple[str, ...] = tuple(spec.name for spec in STAGES)

_BY_NAME: dict[str, StageSpec] = {spec.name: spec for spec in STAGES}

#: Context keys the finished run reads: the artifact fields of
#: :class:`~repro.experiments.scenario.ScenarioRun`.
RUN_KEYS: tuple[str, ...] = (
    "catalog",
    "deployment",
    "dataset",
    "anubis",
    "virustotal",
    "enrichment",
    "epm",
    "bclusters",
)

#: Context keys a recomputing stage may read: everything its parents
#: provide.
_READS: dict[str, frozenset[str]] = {
    spec.name: frozenset(
        key for parent in spec.parents for key in _BY_NAME[parent].provides
    )
    for spec in STAGES
}


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


def replay_plan(stored: Collection[str]) -> tuple[str, ...]:
    """The stored stages whose entries a run must load, in DAG order.

    Walking the DAG bottom up, a stored stage is loaded only when the
    run (:data:`RUN_KEYS`) or a stage that recomputes reads a key that
    no later loaded stage re-provides; a recomputing stage reads what
    its parents provide.  With every stage stored the plan is
    ``("enrich", "epm", "bcluster")``; with only ``bcluster`` missing it
    is ``("enrich", "epm", "bgraph")``.
    """
    needed = set(RUN_KEYS)
    loads: list[str] = []
    for spec in reversed(STAGES):
        if spec.name in stored and needed.intersection(spec.provides):
            loads.append(spec.name)
        needed.difference_update(spec.provides)
        if spec.name not in stored:
            needed.update(_READS[spec.name])
    return tuple(reversed(loads))


def execute_stages(
    ctx: StageContext, tracer: "Tracer", session=None
) -> dict[str, str]:
    """Drive the DAG top to bottom; returns each stage's cache status.

    With no ``session`` every stage computes (status ``"off"``).  With
    one, a stored stage on the :func:`replay_plan` loads its entry into
    the context (the session emits ``cache.stage_hit``), a stored stage
    off the plan is skipped, and any other stage computes and stores
    its artifacts.  Because a stage's fingerprint chains over its
    parents' fingerprints, the first invalidated stage automatically
    invalidates everything downstream of it — the loop needs no
    explicit cascade.

    A skipped stage is a ``hit``: its keys reach the context through a
    later entry that re-provides them.  If a planned entry turns out
    unreadable, the stage recomputes, and the skipped stages that
    provide what it reads are loaded first (or, if unreadable too,
    recomputed and marked ``miss``).

    Every stage opens a span either way, carrying a ``cache`` attribute
    (``hit``/``miss``/``off``) and its descriptive artifact attributes,
    so warm and cold manifests expose the same stage structure.  A
    skipped stage's attributes are set once the context is complete.
    """
    stored = [
        spec.name for spec in STAGES if session is not None and session.has(spec.name)
    ]
    skipped = [name for name in stored if name not in replay_plan(stored)]
    pending = set(skipped)
    statuses: dict[str, str] = {}
    spans: dict[str, object] = {}
    for spec in STAGES:
        with tracer.span(spec.name) as span:
            spans[spec.name] = span
            if spec.name in pending:
                status = "hit"
            else:
                loaded = session.load(spec.name) if session is not None else None
                if loaded is not None:
                    ctx.artifacts.update(loaded)
                    status = "hit"
                else:
                    status = _compute_and_store(spec, ctx, session, pending, statuses, spans)
            span.set(cache=status)
            if session is not None:
                span.set(fingerprint=session[spec.name][:12])
            if spec.name not in skipped:
                spec.annotate(ctx, span)
            statuses[spec.name] = status
    for name in skipped:
        _BY_NAME[name].annotate(ctx, spans[name])
    return statuses


def _compute_and_store(
    spec: StageSpec,
    ctx: StageContext,
    session,
    pending: set[str],
    statuses: dict[str, str],
    spans: dict[str, object],
) -> str:
    """Compute one stage (and store it); returns its cache status.

    Skipped stages (``pending``) that provide what the stage reads but
    the context lacks are loaded first, or recomputed if unreadable.
    A module-level function rather than a closure in
    :func:`execute_stages`: a closure that calls itself holds its own
    cell, a reference cycle that would keep ``ctx`` — every artifact
    of the run — alive until the next full cyclic collection.
    """
    if session is None:
        spec.compute(ctx)
        return "off"
    missing = _READS[spec.name] - ctx.artifacts.keys()
    upstream = STAGE_NAMES[: STAGE_NAMES.index(spec.name)]
    providers = {
        next(name for name in reversed(upstream) if key in _BY_NAME[name].provides)
        for key in missing
    }
    for name in sorted(providers, key=STAGE_NAMES.index):
        require(name in pending, f"stage {spec.name!r} lacks input from {name!r}")
        pending.discard(name)
        loaded = session.load(name)
        if loaded is not None:
            ctx.artifacts.update(loaded)
        else:
            statuses[name] = _compute_and_store(
                _BY_NAME[name], ctx, session, pending, statuses, spans
            )
            spans[name].set(cache=statuses[name])
    spec.compute(ctx)
    session.save(spec.name, {key: ctx.artifacts[key] for key in spec.provides})
    return "miss"
