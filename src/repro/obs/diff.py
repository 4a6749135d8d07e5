"""Cross-run comparison and longitudinal drift detection.

:func:`diff_manifests` compares two stored run manifests along the
three axes a refactor can regress on:

* **artifacts** — the digest block, plus a walk over both span trees
  (in completion order, i.e. post-order) comparing the per-stage
  ``output_digest`` attributes to name the *first* stage whose output
  diverged — "the bug is upstream of epm" instead of "something
  changed";
* **metrics** — counter/gauge deltas between the two snapshots
  (sketches hold wall-clock latencies and are skipped by design);
* **timings** — per-stage wall-time ratios against a configurable
  tolerance band.  Timing regressions never fail a diff by default
  (machines differ); callers opt in via ``fail_on_timing``.  Stages
  whose cache disposition differs between the runs (one replayed from
  the stage store, the other computed — schema >= 4 manifests) are
  annotated but never flagged: replay milliseconds are not comparable
  to compute seconds.

A diff also reports *new* golden-headline deviations: deviations
present in run B but not in run A.  Comparing against a committed
reference manifest therefore fails exactly when a change moved the
numbers, not merely because the reference was produced at reduced
scale (where both sides deviate identically from the full-scale
golden values).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.obs.health import TIMING_NOISE_FLOOR, TIMING_TOLERANCE
from repro.obs.manifest import RunManifest
from repro.obs.query import scalar_metrics

#: Event kinds whose order and fields are pure functions of the
#: ``(seed, config)`` pair — the comparable skeleton of an event log.
#: Cache and failure events depend on execution state (a warm cache, a
#: crashed worker) and are excluded from cross-run comparison.
SEMANTIC_EVENT_KINDS = frozenset(
    {
        "run.start",
        "stage.start",
        "stage.finish",
        "chunk.plan",
        "chunk.finish",
        "cluster.milestone",
        "golden.deviation",
        "window.rollup",
        "health.finding",
        "health.summary",
        "run.finish",
    }
)

#: Event fields that legitimately differ between two runs of the same
#: configuration (wall times, backend/worker identity) — stripped
#: before comparing.
VOLATILE_EVENT_FIELDS = frozenset(
    {"seconds", "backend", "executor", "jobs", "rss_kb"}
)


def _payload(manifest: RunManifest | Mapping) -> dict:
    if isinstance(manifest, RunManifest):
        return manifest.as_dict()
    return dict(manifest)


@dataclass(frozen=True)
class TimingDelta:
    """One stage's wall time in both runs.

    ``cache_a``/``cache_b`` carry the stage's cache disposition
    (``hit``/``miss``/``off``, schema >= 4) in each run when recorded.
    A replayed stage loads a pickle in milliseconds while a computed
    one runs for seconds, so a timing comparison across different
    dispositions is meaningless — such deltas are never flagged as
    regressions, only annotated.
    """

    stage: str
    seconds_a: float
    seconds_b: float
    regression: bool
    cache_a: str | None = None
    cache_b: str | None = None

    @property
    def ratio(self) -> float:
        return self.seconds_b / self.seconds_a if self.seconds_a else float("inf")

    @property
    def comparable(self) -> bool:
        """Whether both runs built this stage the same way."""
        return self.cache_a == self.cache_b


@dataclass
class ManifestDiff:
    """Everything that differs between two run manifests."""

    fingerprint_a: str
    fingerprint_b: str
    digest_divergence: dict[str, tuple[str, str]] = field(default_factory=dict)
    first_diverging_stage: str | None = None
    #: First diverging semantic event, when both runs stored event logs.
    first_diverging_event: str | None = None
    metric_deltas: dict[str, tuple[float, float]] = field(default_factory=dict)
    timing_deltas: list[TimingDelta] = field(default_factory=list)
    new_golden_deviations: list[str] = field(default_factory=list)
    #: Per-severity health-summary counts that changed (schema >= 5).
    health_deltas: dict[str, tuple[int, int]] = field(default_factory=dict)

    @property
    def same_config(self) -> bool:
        return self.fingerprint_a == self.fingerprint_b

    @property
    def timing_regressions(self) -> list[TimingDelta]:
        return [delta for delta in self.timing_deltas if delta.regression]

    def failed(self, *, fail_on_timing: bool = False) -> bool:
        """Whether this diff should fail a regression gate."""
        if self.digest_divergence or self.new_golden_deviations:
            return True
        return fail_on_timing and bool(self.timing_regressions)

    def render(self) -> str:
        """Human-readable report, stable ordering."""
        lines: list[str] = []
        if not self.same_config:
            lines.append(
                "config fingerprints differ "
                f"({self.fingerprint_a[:12]}.. vs {self.fingerprint_b[:12]}..): "
                "comparing across configurations"
            )
        if self.digest_divergence:
            lines.append("artifact digests DIVERGED:")
            for artifact, (a, b) in sorted(self.digest_divergence.items()):
                lines.append(f"  {artifact}: {a[:12]}.. -> {b[:12]}..")
            if self.first_diverging_stage is not None:
                lines.append(
                    f"  first diverging stage: {self.first_diverging_stage}"
                )
            if self.first_diverging_event is not None:
                lines.append(
                    f"  first diverging event: {self.first_diverging_event}"
                )
        else:
            lines.append("artifact digests: identical")
        if self.new_golden_deviations:
            lines.append("NEW golden-headline deviations:")
            lines.extend(f"  {deviation}" for deviation in self.new_golden_deviations)
        if self.health_deltas:
            lines.append("health summary changed:")
            for severity, (a, b) in sorted(self.health_deltas.items()):
                lines.append(f"  {severity}: {a} -> {b}")
        if self.metric_deltas:
            lines.append("metric deltas (counters/gauges):")
            for key, (a, b) in sorted(self.metric_deltas.items()):
                lines.append(f"  {key}: {a:g} -> {b:g}")
        else:
            lines.append("metrics: counters/gauges identical")
        if self.timing_deltas:
            lines.append("stage timings:")
            for delta in self.timing_deltas:
                flag = "  REGRESSION" if delta.regression else ""
                if not delta.comparable:
                    flag = (
                        f"  [cache {delta.cache_a or '?'} -> "
                        f"{delta.cache_b or '?'}: not compared]"
                    )
                lines.append(
                    f"  {delta.stage:<12} {delta.seconds_a:8.3f}s -> "
                    f"{delta.seconds_b:8.3f}s ({delta.ratio:5.2f}x){flag}"
                )
        return "\n".join(lines)


def _walk_postorder(span: Mapping) -> Iterator[Mapping]:
    for child in span.get("children", ()):
        yield from _walk_postorder(child)
    yield span


def _span_digests(tree: Mapping) -> list[tuple[str, str]]:
    """``(name, output_digest)`` pairs in completion (post-) order."""
    if not tree:
        return []
    return [
        (str(span.get("name", "?")), str(span["attributes"]["output_digest"]))
        for span in _walk_postorder(tree)
        if "output_digest" in span.get("attributes", {})
    ]


def _event_kind_fields(event) -> tuple[str, dict]:
    """``(kind, fields)`` of a :class:`PipelineEvent` or its dict form."""
    if isinstance(event, Mapping):
        return str(event.get("kind", "?")), dict(event.get("fields", {}))
    return event.kind, dict(event.fields)


def _semantic_events(events) -> list[tuple[str, tuple]]:
    """The comparable skeleton of an event log.

    Keeps only :data:`SEMANTIC_EVENT_KINDS`, strips
    :data:`VOLATILE_EVENT_FIELDS`, and normalises each survivor to a
    hashable ``(kind, sorted fields)`` pair.
    """
    skeleton: list[tuple[str, tuple]] = []
    for event in events:
        kind, fields = _event_kind_fields(event)
        if kind not in SEMANTIC_EVENT_KINDS:
            continue
        kept = tuple(
            (key, str(fields[key]))
            for key in sorted(fields)
            if key not in VOLATILE_EVENT_FIELDS
        )
        skeleton.append((kind, kept))
    return skeleton


def _render_semantic(entry: tuple[str, tuple]) -> str:
    kind, fields = entry
    rendered = " ".join(f"{key}={value}" for key, value in fields)
    return f"{kind} {rendered}".strip()


def first_diverging_event(events_a, events_b) -> str | None:
    """First semantic event where two runs' logs disagree, or ``None``.

    Compares the deterministic skeletons (:func:`_semantic_events`) of
    both logs position by position, so a divergence is attributed to
    the first *event* — finer-grained than the first diverging stage
    when, say, a cluster-count milestone moved inside an otherwise
    identical stage sequence.  Returns a human-readable description of
    the disagreement.
    """
    skel_a = _semantic_events(events_a)
    skel_b = _semantic_events(events_b)
    for index, (entry_a, entry_b) in enumerate(zip(skel_a, skel_b)):
        if entry_a != entry_b:
            return (
                f"semantic event #{index}: "
                f"{_render_semantic(entry_a)}  ->  {_render_semantic(entry_b)}"
            )
    if len(skel_a) != len(skel_b):
        index = min(len(skel_a), len(skel_b))
        longer = skel_a if len(skel_a) > len(skel_b) else skel_b
        which = "reference" if len(skel_a) > len(skel_b) else "candidate"
        return (
            f"semantic event #{index}: only in {which} run: "
            f"{_render_semantic(longer[index])}"
        )
    return None


def first_diverging_stage(tree_a: Mapping, tree_b: Mapping) -> str | None:
    """Name of the earliest-completing span whose output digest diverged.

    Walks both exported span trees in post-order (the order stages
    finish in), pairing spans by name, and returns the first pair whose
    ``output_digest`` attributes disagree — ``None`` when every paired
    digest matches.
    """
    digests_b = dict(_span_digests(tree_b))
    for name, digest_a in _span_digests(tree_a):
        digest_b = digests_b.get(name)
        if digest_b is not None and digest_b != digest_a:
            return name
    return None


def _stage_seconds(tree: Mapping) -> dict[str, float]:
    """Direct-child stage wall times of an exported span tree."""
    return {
        str(child.get("name", "?")): float(child.get("seconds", 0.0))
        for child in tree.get("children", ())
    }


def _stage_cache(tree: Mapping) -> dict[str, str]:
    """Direct-child stage cache dispositions (schema >= 4 manifests)."""
    out: dict[str, str] = {}
    for child in tree.get("children", ()):
        status = child.get("attributes", {}).get("cache")
        if isinstance(status, str):
            out[str(child.get("name", "?"))] = status
    return out


def diff_manifests(
    a: RunManifest | Mapping,
    b: RunManifest | Mapping,
    *,
    timing_tolerance: float = TIMING_TOLERANCE,
    events_a=None,
    events_b=None,
) -> ManifestDiff:
    """Compare manifest ``a`` (the reference) against ``b`` (the candidate).

    ``events_a``/``events_b`` optionally supply the two runs' event
    logs (from :meth:`~repro.obs.history.RunStore.load_events`); when a
    digest diverges and both logs are present, the diff additionally
    names the first diverging semantic event.
    """
    a, b = _payload(a), _payload(b)
    diff = ManifestDiff(
        fingerprint_a=str(a.get("fingerprint", "")),
        fingerprint_b=str(b.get("fingerprint", "")),
    )

    digests_a = a.get("artifact_digests", {})
    digests_b = b.get("artifact_digests", {})
    for artifact in sorted(set(digests_a) | set(digests_b)):
        da, db = digests_a.get(artifact, ""), digests_b.get(artifact, "")
        if da != db:
            diff.digest_divergence[artifact] = (da, db)
    if diff.digest_divergence:
        diff.first_diverging_stage = first_diverging_stage(
            a.get("span_tree", {}), b.get("span_tree", {})
        )
        if events_a is not None and events_b is not None:
            diff.first_diverging_event = first_diverging_event(events_a, events_b)

    metrics_a = scalar_metrics(a.get("metrics", {}))
    metrics_b = scalar_metrics(b.get("metrics", {}))
    for key in set(metrics_a) | set(metrics_b):
        va, vb = metrics_a.get(key, 0.0), metrics_b.get(key, 0.0)
        if va != vb:
            diff.metric_deltas[key] = (va, vb)

    seconds_a = _stage_seconds(a.get("span_tree", {}))
    seconds_b = _stage_seconds(b.get("span_tree", {}))
    cache_a = _stage_cache(a.get("span_tree", {}))
    cache_b = _stage_cache(b.get("span_tree", {}))
    for stage in sorted(set(seconds_a) | set(seconds_b)):
        sa, sb = seconds_a.get(stage, 0.0), seconds_b.get(stage, 0.0)
        ca, cb = cache_a.get(stage), cache_b.get(stage)
        regression = (
            ca == cb
            and sb > sa * timing_tolerance
            and sb - sa > TIMING_NOISE_FLOOR
        )
        diff.timing_deltas.append(TimingDelta(stage, sa, sb, regression, ca, cb))

    deviations_a = set(a.get("golden_deviations", []))
    diff.new_golden_deviations = [
        deviation
        for deviation in b.get("golden_deviations", [])
        if deviation not in deviations_a
    ]

    health_a = a.get("health_summary", {}) or {}
    health_b = b.get("health_summary", {}) or {}
    for severity in sorted(set(health_a) | set(health_b)):
        ha = int(health_a.get(severity, 0))
        hb = int(health_b.get(severity, 0))
        if ha != hb:
            diff.health_deltas[severity] = (ha, hb)
    return diff
