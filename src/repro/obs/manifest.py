"""Per-run manifests: what was run, what came out, how to compare runs.

A :class:`RunManifest` is the machine-readable receipt of one scenario
run: the semantic config fingerprint (the same content address the
scenario cache keys on), the seed, the library version, the full trace
span tree, a metrics snapshot, SHA-256 digests of the run's key
artifacts, the wall-clock ``created_at`` stamp (from the injectable
:mod:`repro.util.clock`, so tests pin it) and the run's own
golden-headline deviations.  Two runs of the same ``(seed, config)``
must agree on ``fingerprint`` and ``artifact_digests`` byte-for-byte on
any backend; only the span durations, latency sketches and
``created_at`` may differ.  That makes the manifest the cheap
cross-machine regression check: diff the digest block, not the gigabyte
of artifacts.

Stage-producing spans in the tree additionally carry an
``output_digest`` attribute (:data:`STAGE_ARTIFACTS` names the mapping)
so a cross-run diff can *walk the span trees* and name the first stage
whose output diverged — see :mod:`repro.obs.diff`.

The builder only reads public run attributes (duck-typed), keeping
``repro.obs`` dependent on :mod:`repro.util` alone; the one sanctioned
exception is the deferred import of the golden-headline check from
:mod:`repro.experiments.regression` inside :func:`build_manifest`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from repro.util.canonical import canonical_digest, canonicalize
from repro.util.clock import timestamp
from repro.util.validation import require

#: Manifest schema version; bump on incompatible layout changes.  It is
#: also the oldest layout any reader accepts: a stored run of an older
#: schema is refused (:func:`schema_error`), never translated.  The
#: schema history lives in ``docs/ARCHITECTURE.md``.
MANIFEST_SCHEMA = 8

#: Which span (by name) produced which digested artifact — the walk
#: order of the cross-run digest diff.  ``headline`` summarises the
#: whole run and is attributed to the root span.
STAGE_ARTIFACTS: dict[str, str] = {
    "observe": "dataset.events",
    "epm": "epm.clusters",
    "bcluster": "bclusters.assignment",
}


@dataclass
class RunManifest:
    """The JSON-exportable record of one scenario run."""

    fingerprint: str
    seed: int
    config: dict
    library_version: str
    span_tree: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    artifact_digests: dict[str, str] = field(default_factory=dict)
    created_at: str = ""
    golden_deviations: list[str] = field(default_factory=list)
    #: Per-kind event counts of the run's live stream.
    #: Cross-checked against the span tree by ``repro obs validate``:
    #: every non-root span must have produced one ``stage.finish``.
    event_summary: dict[str, int] = field(default_factory=dict)
    #: Stage name -> content-addressed fingerprint of the incremental
    #: stage DAG.  Two manifests agreeing on a stage's fingerprint are
    #: replayable from the same stage-store artifact.
    stage_fingerprints: dict[str, str] = field(default_factory=dict)
    #: Per-severity finding counts of the run's health evaluation
    #: (:meth:`repro.obs.health.Report.summary`).
    #: The full findings live on the event stream (``health.finding``);
    #: the manifest keeps the roll-up so ``obs diff``/CI gates can spot
    #: a run going unhealthy without replaying the stream.
    health_summary: dict[str, int] = field(default_factory=dict)
    schema: int = MANIFEST_SCHEMA

    def as_dict(self) -> dict:
        """Plain-dict form (the JSON layout)."""
        return {
            "schema": self.schema,
            "fingerprint": self.fingerprint,
            "seed": self.seed,
            "config": self.config,
            "library_version": self.library_version,
            "created_at": self.created_at,
            "span_tree": self.span_tree,
            "metrics": self.metrics,
            "artifact_digests": dict(sorted(self.artifact_digests.items())),
            "golden_deviations": list(self.golden_deviations),
            "event_summary": dict(sorted(self.event_summary.items())),
            "stage_fingerprints": dict(sorted(self.stage_fingerprints.items())),
            "health_summary": dict(sorted(self.health_summary.items())),
        }

    def to_json(self) -> str:
        """Deterministic JSON encoding (sorted keys)."""
        return json.dumps(self.as_dict(), sort_keys=True, indent=2)

    def content_id(self) -> str:
        """Content address of this manifest (what the run store keys on)."""
        return canonical_digest(self.as_dict())

    def write(self, path: str | Path) -> Path:
        """Persist the manifest as JSON; returns the path written."""
        path = Path(path)
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path

    @classmethod
    def from_dict(cls, payload: Mapping) -> "RunManifest":
        """Rebuild a manifest from its :meth:`as_dict` form."""
        error = schema_error(payload.get("schema"))
        require(error is None, str(error))
        return cls(
            fingerprint=payload["fingerprint"],
            seed=payload["seed"],
            config=dict(payload["config"]),
            library_version=payload["library_version"],
            span_tree=dict(payload.get("span_tree", {})),
            metrics=dict(payload.get("metrics", {})),
            artifact_digests=dict(payload.get("artifact_digests", {})),
            created_at=str(payload.get("created_at", "")),
            golden_deviations=[str(d) for d in payload.get("golden_deviations", [])],
            event_summary={
                str(kind): int(count)
                for kind, count in dict(payload.get("event_summary", {})).items()
            },
            stage_fingerprints={
                str(stage): str(fingerprint)
                for stage, fingerprint in dict(
                    payload.get("stage_fingerprints", {})
                ).items()
            },
            health_summary={
                str(severity): int(count)
                for severity, count in dict(
                    payload.get("health_summary", {})
                ).items()
            },
            schema=int(payload["schema"]),
        )


def schema_error(schema: object) -> str | None:
    """Why a manifest of layout ``schema`` is unreadable; ``None`` if it is not."""
    if schema == MANIFEST_SCHEMA:
        return None
    if isinstance(schema, int) and schema < MANIFEST_SCHEMA:
        return (
            f"manifest schema {schema} is older than the oldest readable layout "
            f"({MANIFEST_SCHEMA}); re-run the scenario to regenerate it"
        )
    return f"manifest: schema is {schema!r}, expected {MANIFEST_SCHEMA}"


def artifact_digests(run) -> dict[str, str]:
    """SHA-256 digests of the run's key artifacts, deterministic per seed.

    Digested content is reduced through
    :func:`repro.util.canonical.canonicalize`, so the digests are pure
    functions of the artifacts — never of wall-clock state or dict
    iteration order.
    """
    events = [
        [
            event.event_id,
            event.timestamp,
            int(event.source),
            int(event.sensor),
            event.malware.md5 if event.malware is not None else None,
        ]
        for event in run.dataset.events
    ]
    epm_clusters = {
        dimension.value: clustering.sizes()
        for dimension, clustering in run.epm.dimensions.items()
    }
    return {
        "dataset.events": canonical_digest(events),
        "epm.clusters": canonical_digest(epm_clusters),
        "bclusters.assignment": canonical_digest(run.bclusters.assignment),
        "headline": canonical_digest(run.headline()),
    }


def annotate_stage_digests(trace, digests: Mapping[str, str]) -> None:
    """Attach each artifact digest to the span that produced it.

    Mutates the live :class:`~repro.obs.trace.TraceSpan` tree per
    :data:`STAGE_ARTIFACTS` (the root span gets the ``headline``
    digest), so the exported ``span_tree`` carries enough information
    for a cross-run diff to name the first diverging stage.
    """
    if trace is None:
        return
    if "headline" in digests:
        trace.set(output_digest=digests["headline"])
    for stage, artifact in STAGE_ARTIFACTS.items():
        if artifact not in digests:
            continue
        span = trace.find(stage)
        if span is not None:
            span.set(output_digest=digests[artifact])


def build_manifest(
    run,
    *,
    fingerprint: str,
    events: Mapping[str, int] | None = None,
    stages: Mapping[str, str] | None = None,
    health: Mapping[str, int] | None = None,
) -> RunManifest:
    """Assemble the manifest of a finished scenario run.

    ``fingerprint`` is supplied by the caller (the scenario layer owns
    the fingerprint function) so this module stays independent of
    :mod:`repro.experiments`; ``stages`` is the matching per-stage
    fingerprint map of the incremental stage DAG.  ``events`` is the
    per-kind count summary of the run's live event stream
    (``EventBus.summary()``) when one was recorded; ``health`` the
    per-severity summary of the run's health evaluation
    (``Report.summary()``).  The golden-headline check is the one
    deliberate upward reference — deferred and optional, so the obs
    layer still imports standalone.
    """
    import repro

    digests = artifact_digests(run)
    annotate_stage_digests(run.trace, digests)
    try:
        from repro.experiments.regression import check_headline
    except ImportError:  # pragma: no cover - experiments layer absent
        golden_deviations: list[str] = []
    else:
        golden_deviations = check_headline(run.headline())
    return RunManifest(
        fingerprint=fingerprint,
        seed=run.seed,
        config=canonicalize(run.config),
        library_version=repro.__version__,
        span_tree=run.trace.export() if run.trace is not None else {},
        metrics=run.metrics.as_dict() if run.metrics is not None else {},
        artifact_digests=digests,
        created_at=timestamp(),
        golden_deviations=golden_deviations,
        event_summary=dict(events) if events else {},
        stage_fingerprints=dict(stages) if stages else {},
        health_summary=dict(health) if health else {},
    )
