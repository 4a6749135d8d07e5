"""The one two-run comparison behind ``repro obs diff``.

:func:`diff_manifests` compares a reference manifest against a
candidate along every axis a change can move:

* **artifacts** — the digest block, plus a post-order (completion
  order) walk over both span trees naming the *first* stage whose
  ``output_digest`` diverged, and, given both event logs, the first
  diverging semantic event;
* **metrics** — counter/gauge deltas (sketches hold wall-clock
  latencies and are skipped by design);
* **stages** — one :class:`StageRow` per depth-1 stage, in pipeline
  order: each run's readings and cache disposition, and whether the
  config delta *re-keyed* the stage (its stage fingerprint differs).
  A replayed stage has no comparable readings
  (:func:`~repro.obs.query.span_reading`); a stage in one run only is
  ``added``/``removed``.  Timing flags are the ``band`` detector's
  verdict on ``[seconds_a, seconds_b]`` under the shipped timing rule
  (:func:`~repro.obs.health.band_rule`), and fail a diff only when the
  caller opts in (machines differ);
* **config** — the dotted-key config delta and the wall-clock delta
  attributed to it, summed over the re-keyed stages only.

*New* golden-headline deviations (in B, not in A) fail a diff; the
deviations both runs share do not, so a reduced-scale reference still
gates.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Iterator, Mapping

from repro.obs.health import band_rule, band_scan
from repro.obs.manifest import RunManifest
from repro.obs.query import scalar_metrics, span_reading
from repro.util.canonical import flatten_canonical, mapping_delta

#: Event kinds whose order and fields are pure functions of the
#: ``(seed, config)`` pair — the comparable skeleton of an event log.
#: Cache events depend on execution state (a warm cache) and are
#: excluded from cross-run comparison.
SEMANTIC_EVENT_KINDS = frozenset(
    {
        "run.start",
        "stage.start",
        "stage.finish",
        "cluster.milestone",
        "golden.deviation",
        "window.rollup",
        "health.finding",
        "health.summary",
        "run.finish",
    }
)

#: Event fields that legitimately differ between two runs of the same
#: configuration (wall times) — stripped before comparing.
VOLATILE_EVENT_FIELDS = frozenset({"seconds"})


def _payload(manifest: RunManifest | Mapping) -> dict:
    if isinstance(manifest, RunManifest):
        return manifest.as_dict()
    return dict(manifest)


@dataclass(frozen=True)
class StageRow:
    """One depth-1 pipeline stage side by side in both runs.

    Readings (``seconds``, ``cpu``, ``rss`` in KiB) are ``None`` where a
    run lacks the stage or replayed it from the stage store; ``cache``
    is the recorded disposition (``hit``/``miss``/``off``), ``None``
    where a run lacks the stage or predates the attribute.
    """

    stage: str
    #: ``both``, ``added`` (candidate only) or ``removed`` (reference only).
    presence: str
    #: Whether the stage's content-addressed fingerprint differs.
    rekeyed: bool
    cache_a: str | None = None
    cache_b: str | None = None
    seconds_a: float | None = None
    seconds_b: float | None = None
    cpu_a: float | None = None
    cpu_b: float | None = None
    rss_a: float | None = None
    rss_b: float | None = None
    #: Whether the timing ``band`` rule flags ``[seconds_a, seconds_b]``.
    regression: bool = False

    @property
    def delta_seconds(self) -> float | None:
        if self.seconds_a is None or self.seconds_b is None:
            return None
        return self.seconds_b - self.seconds_a

    def as_dict(self) -> dict:
        return {**asdict(self), "delta_seconds": self.delta_seconds}


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
    stages: list[StageRow] = field(default_factory=list)
    #: Dotted config keys whose values differ, key -> (a, b).
    config_delta: dict[str, tuple[object, object]] = field(default_factory=dict)
    new_golden_deviations: list[str] = field(default_factory=list)
    #: Per-severity health-summary counts that changed.
    health_deltas: dict[str, tuple[int, int]] = field(default_factory=dict)

    @property
    def same_config(self) -> bool:
        return self.fingerprint_a == self.fingerprint_b

    @property
    def timing_regressions(self) -> list[StageRow]:
        return [row for row in self.stages if row.regression]

    @property
    def attributed_seconds(self) -> float | None:
        """Wall-clock delta summed over the re-keyed stages only.

        Stages the delta did not re-key replay or recompute
        identically, so their drift is machine noise, not the delta's
        bill.  ``None`` when no re-keyed stage has comparable seconds.
        """
        deltas = [
            row.delta_seconds
            for row in self.stages
            if row.rekeyed and row.delta_seconds is not None
        ]
        return sum(deltas) if deltas else None

    def failed(self, *, fail_on_timing: bool = False) -> bool:
        """Whether this diff should fail a regression gate."""
        if self.digest_divergence or self.new_golden_deviations:
            return True
        return fail_on_timing and bool(self.timing_regressions)

    def as_dict(self) -> dict:
        """JSON-ready form: every section, plus the derived verdicts."""
        return {
            **asdict(self),
            "stages": [row.as_dict() for row in self.stages],
            "same_config": self.same_config,
            "attributed_seconds": self.attributed_seconds,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2)

    def render(self) -> str:
        """Human-readable report, stable ordering."""
        lines: list[str] = []
        if self.same_config:
            lines.append(
                f"same configuration ({self.fingerprint_a[:12]}..): "
                "comparing repeat runs"
            )
        else:
            lines.append(
                "config fingerprints differ "
                f"({self.fingerprint_a[:12]}.. vs {self.fingerprint_b[:12]}..): "
                "comparing across configurations"
            )
            if self.config_delta:
                lines.append("config delta:")
                for key, (a, b) in self.config_delta.items():
                    lines.append(f"  {key}: {a!r} -> {b!r}")
            else:
                lines.append("  no keyed config delta (seed or schema change)")
        if self.digest_divergence:
            lines.append("artifact digests DIVERGED:")
            for artifact, (a, b) in sorted(self.digest_divergence.items()):
                lines.append(f"  {artifact}: {a[:12]}.. -> {b[:12]}..")
            if self.first_diverging_stage is not None:
                lines.append(f"  first diverging stage: {self.first_diverging_stage}")
            if self.first_diverging_event is not None:
                lines.append(f"  first diverging event: {self.first_diverging_event}")
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
        if self.stages:
            lines.append("stages (a replayed stage has no comparable readings):")
            lines.append(
                f"  {'stage':<12} {'cache A/B':<10} {'rekeyed':<7} {'seconds A':>9} "
                f"{'seconds B':>9} {'delta':>8}  cpu A -> B, rss A -> B"
            )
            lines.extend(_render_row(row) for row in self.stages)
        attributed = self.attributed_seconds
        if attributed is not None:
            rekeyed = sum(1 for row in self.stages if row.rekeyed)
            lines.append(
                f"attributed cost: {attributed:+.3f}s across "
                f"{rekeyed} re-keyed stage(s)"
            )
        return "\n".join(lines)


def _cell(value: float | None, spec: str, unit: str = "") -> str:
    return "-" if value is None else f"{value:{spec}}{unit}"


def _render_row(row: StageRow) -> str:
    cache = f"{row.cache_a or '-'}/{row.cache_b or '-'}"
    flag = {"added": "  added", "removed": "  removed"}.get(row.presence, "")
    if row.regression:
        flag = "  REGRESSION"
    line = (
        f"  {row.stage:<12} {cache:<10} {'yes' if row.rekeyed else '-':<7} "
        f"{_cell(row.seconds_a, '.3f', 's'):>9} {_cell(row.seconds_b, '.3f', 's'):>9} "
        f"{_cell(row.delta_seconds, '+.3f', 's'):>8}  "
        f"cpu {_cell(row.cpu_a, '.3f', 's')} -> {_cell(row.cpu_b, '.3f', 's')}, "
        f"rss {_cell(row.rss_a, '.0f')} -> {_cell(row.rss_b, '.0f', ' KiB')}"
    )
    return line + flag


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


def _health(payload: Mapping) -> dict[str, int]:
    """Per-severity health-summary counts of a manifest."""
    return {key: int(count) for key, count in (payload.get("health_summary") or {}).items()}


def _stages(tree: Mapping) -> dict[str, Mapping]:
    """Depth-1 stage spans of an exported span tree, in pipeline order."""
    return {str(child.get("name", "?")): child for child in tree.get("children", ())}


def _stage_order(names_a: list[str], names_b: list[str]) -> list[str]:
    """Reference order, with each candidate-only stage after its predecessor."""
    order = list(names_a)
    for index, name in enumerate(names_b):
        if name not in order:
            position = order.index(names_b[index - 1]) + 1 if index else 0
            order.insert(position, name)
    return order


def _stage_row(
    name: str, span_a: Mapping | None, span_b: Mapping | None, rekeyed: bool
) -> StageRow:
    """One stage's row; a ``None`` span is a stage that run lacks."""

    def side(span: Mapping | None, suffix: str) -> dict:
        if span is None:
            return {}
        return {
            f"cache_{suffix}": span.get("attributes", {}).get("cache"),
            f"seconds_{suffix}": span_reading(span),
            f"cpu_{suffix}": span_reading(span, "cpu_seconds"),
            f"rss_{suffix}": span_reading(span, "max_rss_kb"),
        }

    readings = {**side(span_a, "a"), **side(span_b, "b")}
    seconds = [readings.get("seconds_a"), readings.get("seconds_b")]
    regression = None not in seconds and bool(
        band_scan(band_rule(f"span:{name}"), seconds)
    )
    presence = "added" if span_a is None else "removed" if span_b is None else "both"
    return StageRow(name, presence, rekeyed, regression=regression, **readings)


def diff_manifests(
    a: RunManifest | Mapping,
    b: RunManifest | Mapping,
    *,
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
    tree_a, tree_b = a.get("span_tree", {}), b.get("span_tree", {})
    digests = mapping_delta(a.get("artifact_digests", {}), b.get("artifact_digests", {}), "")
    stages_a, stages_b = _stages(tree_a), _stages(tree_b)
    keys_a = a.get("stage_fingerprints", {})
    keys_b = b.get("stage_fingerprints", {})
    deviations_a = set(a.get("golden_deviations", []))
    return ManifestDiff(
        fingerprint_a=str(a.get("fingerprint", "")),
        fingerprint_b=str(b.get("fingerprint", "")),
        digest_divergence=digests,
        first_diverging_stage=first_diverging_stage(tree_a, tree_b) if digests else None,
        first_diverging_event=(
            first_diverging_event(events_a, events_b)
            if digests and events_a is not None and events_b is not None
            else None
        ),
        metric_deltas=mapping_delta(
            scalar_metrics(a.get("metrics", {})), scalar_metrics(b.get("metrics", {})), 0.0
        ),
        stages=[
            _stage_row(
                name,
                stages_a.get(name),
                stages_b.get(name),
                rekeyed=keys_a.get(name) != keys_b.get(name),
            )
            for name in _stage_order(list(stages_a), list(stages_b))
        ],
        config_delta=mapping_delta(
            flatten_canonical(a.get("config", {})), flatten_canonical(b.get("config", {}))
        ),
        new_golden_deviations=[
            deviation
            for deviation in b.get("golden_deviations", [])
            if deviation not in deviations_a
        ],
        health_deltas=mapping_delta(_health(a), _health(b), 0),
    )
