"""The metric-name catalogue and emitted-JSON validators.

Every metric the pipeline emits is declared here, name -> kind; the
catalogue is mirrored in ``docs/ARCHITECTURE.md``.  CI runs this module
against the smoke scenario's ``--metrics-out``/``--manifest`` output,
so renaming or adding a metric without updating the catalogue (and the
docs) fails the build — the catalogue stays honest by construction.

Usage::

    python -m repro.obs.validate --metrics m.json --manifest manifest.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Mapping, Sequence

from repro.obs.manifest import schema_error
from repro.obs.metrics import SNAPSHOT_SCHEMA, base_name

#: Every documented metric name and its kind.  One entry per name in
#: ``docs/ARCHITECTURE.md``'s catalogue table — keep the two in sync.
METRIC_CATALOGUE: dict[str, str] = {
    # honeypot layer
    "honeypot.events_observed": "counter",
    "honeypot.samples_collected": "counter",
    # No longer emitted; the committed reference run carries it at 0.
    "honeypot.background_filtered": "counter",
    "honeypot.sensors_deployed": "gauge",
    # enrichment layer
    "enrich.samples_enriched": "counter",
    "enrich.samples_executed": "counter",
    "enrich.samples_not_executable": "counter",
    # EPM clustering (labelled by dimension=epsilon|pi|mu)
    "epm.observations": "counter",
    "epm.invariants_discovered": "counter",
    "epm.patterns_discovered": "counter",
    "epm.clusters": "gauge",
    # sandbox execution + LSH behaviour clustering
    "sandbox.executions": "counter",
    "sandbox.batch_size": "sketch",
    "lsh.unique_profiles": "gauge",
    "lsh.candidate_pairs": "counter",
    "lsh.pairs_verified": "counter",
    "lsh.bucket_size": "sketch",
    "lsh.buckets_skipped": "counter",
    "lsh.clusters": "gauge",
    # cross-view join of the M and B perspectives (analysis/crossview)
    "crossview.joint_samples": "gauge",
    "crossview.m_clusters": "gauge",
    "crossview.b_clusters": "gauge",
    "crossview.singleton_b_clusters": "gauge",
    "crossview.rare_singletons": "gauge",
    "crossview.singleton_anomalies": "gauge",
    "crossview.environment_splits": "gauge",
    # windowed landscape telemetry (only with ScenarioConfig.windows > 0)
    "window.count": "gauge",
    "window.weeks": "gauge",
    "window.events": "sketch",
    # SLO/health engine (labelled by severity=info|warning|critical)
    "health.findings": "counter",
    # scenario artifact cache (whole-run layer)
    "cache.hit": "counter",
    "cache.miss": "counter",
    "cache.evict": "counter",
    "cache.store": "counter",
    # incremental stage store (labelled by stage=<pipeline stage>)
    "cache.stage_hit": "counter",
    "cache.stage_miss": "counter",
    "cache.stage_store": "counter",
    # event bus: gaps between consecutive emits
    "events.interarrival": "sketch",
    # classification serving (labelled by dimension=epsilon|pi|mu where
    # noted; emitted by repro.serve.classifier, never by scenario runs)
    "classify.requests": "counter",
    "classify.batch_rows": "counter",
    "classify.latency": "sketch",
}

#: Metrics every scenario run must emit, regardless of scale.
REQUIRED_SCENARIO_METRICS = frozenset(
    {
        "honeypot.events_observed",
        "honeypot.samples_collected",
        "honeypot.sensors_deployed",
        "enrich.samples_enriched",
        "enrich.samples_executed",
        "epm.observations",
        "epm.invariants_discovered",
        "epm.patterns_discovered",
        "epm.clusters",
        "sandbox.executions",
        "sandbox.batch_size",
        "lsh.unique_profiles",
        "lsh.candidate_pairs",
        "lsh.pairs_verified",
        "lsh.bucket_size",
        "lsh.buckets_skipped",
        "lsh.clusters",
        "crossview.joint_samples",
        "crossview.m_clusters",
        "crossview.b_clusters",
        "crossview.singleton_b_clusters",
        "crossview.rare_singletons",
        "crossview.singleton_anomalies",
        "crossview.environment_splits",
    }
)

_KIND_SECTIONS = (
    ("counters", "counter"),
    ("gauges", "gauge"),
    ("sketches", "sketch"),
)


def validate_metrics(payload: Mapping, *, require_scenario: bool = False) -> list[str]:
    """Errors in a metrics-snapshot dict; empty list means valid.

    Checks the schema version, that no section but the three instrument
    sections holds anything (stored schema-8 snapshots carry an empty
    section of a retired instrument kind), that every emitted name is in
    :data:`METRIC_CATALOGUE` under the right kind, and (with
    ``require_scenario``) that every name in
    :data:`REQUIRED_SCENARIO_METRICS` actually appears.
    """
    errors: list[str] = []
    if payload.get("schema") != SNAPSHOT_SCHEMA:
        errors.append(
            f"metrics: schema is {payload.get('schema')!r}, expected {SNAPSHOT_SCHEMA}"
        )
    known = {"schema", *(section for section, _kind in _KIND_SECTIONS)}
    errors.extend(
        f"metrics: unknown section {section!r}"
        for section, entries in payload.items()
        if section not in known and entries
    )
    seen: set[str] = set()
    for section, kind in _KIND_SECTIONS:
        for key in payload.get(section, {}):
            name = base_name(key)
            seen.add(name)
            documented = METRIC_CATALOGUE.get(name)
            if documented is None:
                errors.append(f"metrics: undocumented metric {name!r} (from {key!r})")
            elif documented != kind:
                errors.append(
                    f"metrics: {name!r} emitted as {kind}, documented as {documented}"
                )
    for key, sketch in payload.get("sketches", {}).items():
        errors.extend(_check_sketch_payload(key, sketch))
    if require_scenario:
        for name in sorted(REQUIRED_SCENARIO_METRICS - seen):
            errors.append(f"metrics: required scenario metric {name!r} missing")
    return errors


def _check_sketch_payload(key: str, payload: object) -> list[str]:
    """Structural errors in one exported sketch payload.

    Internal-consistency checks only (shape, count accounting) — the
    relative-error guarantee itself is property-tested, not validated
    per run.
    """
    if not isinstance(payload, Mapping):
        return [f"metrics: sketch {key!r} payload must be a mapping"]
    errors: list[str] = []
    alpha = payload.get("alpha")
    if not isinstance(alpha, (int, float)) or not 0.0 < float(alpha) < 1.0:
        errors.append(f"metrics: sketch {key!r} alpha {alpha!r} not in (0, 1)")
    max_bins = payload.get("max_bins")
    if not isinstance(max_bins, int) or max_bins < 2:
        errors.append(f"metrics: sketch {key!r} max_bins {max_bins!r} < 2")
    bins = payload.get("bins", {})
    if not isinstance(bins, Mapping):
        errors.append(f"metrics: sketch {key!r} bins must be a mapping")
        bins = {}
    binned = 0
    for index, count in bins.items():
        try:
            int(index)
        except (TypeError, ValueError):
            errors.append(f"metrics: sketch {key!r} bin index {index!r} not an int")
        if not isinstance(count, int) or count < 1:
            errors.append(
                f"metrics: sketch {key!r} bin {index!r} count {count!r} "
                "must be a positive integer"
            )
        else:
            binned += count
    if isinstance(max_bins, int) and len(bins) > max_bins:
        errors.append(
            f"metrics: sketch {key!r} holds {len(bins)} bins, over its "
            f"max_bins={max_bins} cap"
        )
    zeros = payload.get("zeros", 0)
    count = payload.get("count", 0)
    if (
        isinstance(zeros, int)
        and isinstance(count, int)
        and zeros + binned != count
    ):
        errors.append(
            f"metrics: sketch {key!r} count {count} != zeros {zeros} + "
            f"binned {binned} (observations lost)"
        )
    return errors


def _is_digest(value: object) -> bool:
    return isinstance(value, str) and len(value) == 64


def _is_mapping(value: object) -> bool:
    return isinstance(value, Mapping)


def _is_str(value: object) -> bool:
    return isinstance(value, str)


#: ``(field, check, message)`` per required top-level manifest field.
_MANIFEST_FIELDS: tuple[tuple[str, Callable[[object], bool], str], ...] = (
    ("fingerprint", _is_digest, "must be a 64-hex-char string"),
    ("seed", lambda value: isinstance(value, int), "must be an integer"),
    ("config", _is_mapping, "must be a mapping"),
    ("span_tree", _is_mapping, "must be a mapping"),
    ("metrics", _is_mapping, "must be a mapping"),
    ("artifact_digests", _is_mapping, "must be a mapping"),
    ("library_version", _is_str, "must be a string"),
    ("created_at", _is_str, "must be a string"),
    (
        "golden_deviations",
        lambda value: isinstance(value, list) and all(map(_is_str, value)),
        "must be a list of strings",
    ),
    ("stage_fingerprints", _is_mapping, "must be a mapping"),
    ("health_summary", _is_mapping, "must be a mapping"),
)


def validate_manifest(payload: Mapping) -> list[str]:
    """Errors in a run-manifest dict; empty list means valid.

    A manifest of any layout but
    :data:`~repro.obs.manifest.MANIFEST_SCHEMA` is one error
    (:func:`~repro.obs.manifest.schema_error`) and is checked no further.
    """
    error = schema_error(payload.get("schema"))
    if error is not None:
        return [error]
    errors = [
        f"manifest: {name} {message}"
        for name, check, message in _MANIFEST_FIELDS
        if not check(payload.get(name))
    ]
    span_tree = payload.get("span_tree")
    if isinstance(span_tree, Mapping):
        if "name" not in span_tree:
            errors.append("manifest: span_tree root has no name")
        errors.extend(_check_span_cache_attributes(span_tree))
    if payload.get("artifact_digests") == {}:
        errors.append("manifest: artifact_digests is empty")
    for section, what in (
        ("artifact_digests", "digest"),
        ("stage_fingerprints", "stage fingerprint"),
    ):
        digests = payload.get(section)
        if isinstance(digests, Mapping):
            errors.extend(
                f"manifest: {what} of {key!r} is not a 64-hex-char string"
                for key, digest in digests.items()
                if not _is_digest(digest)
            )
    metrics = payload.get("metrics")
    if isinstance(metrics, Mapping) and metrics:
        errors.extend(validate_metrics(metrics))
    summary = payload.get("health_summary")
    if isinstance(summary, Mapping):
        from repro.obs.health import SEVERITIES

        for severity, count in summary.items():
            if severity not in SEVERITIES:
                errors.append(
                    f"manifest: health_summary severity {severity!r} is not "
                    f"one of {SEVERITIES}"
                )
            elif not isinstance(count, int) or count < 0:
                errors.append(
                    f"manifest: health_summary[{severity!r}] must be a "
                    "non-negative integer"
                )
    return errors


#: Legal values of the per-span ``cache`` attribute: replayed from the
#: stage store, recomputed under an active store, or computed with no
#: store consulted.
SPAN_CACHE_STATUSES = frozenset({"hit", "miss", "off"})


def _check_span_cache_attributes(tree: Mapping) -> list[str]:
    """Errors for pipeline-stage spans without a valid ``cache`` attribute.

    Every direct child of the root span (the pipeline stages) must say
    whether it was replayed (``hit``), recomputed (``miss``) or ran
    cache-less (``off``).  Nested spans (LSH sub-phases, enrichment batches) only
    exist on computed stages and carry no cache attribute.
    """
    errors: list[str] = []
    for child in tree.get("children", ()):
        if not isinstance(child, Mapping):
            continue
        status = child.get("attributes", {}).get("cache")
        if status not in SPAN_CACHE_STATUSES:
            errors.append(
                f"manifest: stage span {child.get('name')!r} has cache "
                f"attribute {status!r}, expected one of "
                f"{sorted(SPAN_CACHE_STATUSES)}"
            )
    return errors


def validate_windows(payload: Mapping, *, manifest: Mapping | None = None) -> list[str]:
    """Errors in a window-report dict; empty list means valid.

    Checks the schema version, that every documented series
    (:data:`~repro.obs.windows.WINDOW_SERIES`) is present with exactly
    ``n_windows`` points and no undocumented series sneaks in, and —
    with the run's ``manifest`` payload on hand — that the report's
    fingerprint matches the manifest's (a window sidecar must describe
    the run it sits next to).
    """
    from repro.obs.windows import WINDOW_SERIES, WINDOWS_SCHEMA

    errors: list[str] = []
    if payload.get("schema") != WINDOWS_SCHEMA:
        errors.append(
            f"windows: schema is {payload.get('schema')!r}, expected {WINDOWS_SCHEMA}"
        )
    series = payload.get("series")
    if not isinstance(series, Mapping):
        errors.append("windows: series must be a mapping")
        series = {}
    n_windows = payload.get("n_windows")
    if not isinstance(n_windows, int) or n_windows < 0:
        errors.append("windows: n_windows must be a non-negative integer")
        n_windows = None
    for name in WINDOW_SERIES:
        if name not in series:
            errors.append(f"windows: documented series {name!r} missing")
    for name in sorted(series):
        if name not in WINDOW_SERIES:
            errors.append(f"windows: undocumented series {name!r}")
        elif n_windows is not None and len(series[name]) != n_windows:
            errors.append(
                f"windows: series {name!r} has {len(series[name])} point(s), "
                f"expected n_windows={n_windows}"
            )
    if manifest is not None:
        fingerprint = manifest.get("fingerprint")
        if payload.get("fingerprint") != fingerprint:
            errors.append(
                f"windows: fingerprint {payload.get('fingerprint')!r} does not "
                f"match the manifest's {fingerprint!r}"
            )
    return errors


def validate_events(lines: Sequence[str]) -> list[str]:
    """Errors in a JSON-lines event log; empty list means valid.

    Checks every line parses, carries the current event schema and a
    known kind, that sequence numbers are contiguous (a gap means a
    transport dropped an event mid-stream), and that timestamps never
    go backwards (the bus clock is monotonic).  A log starts at ``seq``
    0: every bus numbers from 0 and the file sink keeps every event.
    """
    from repro.obs.events import EVENT_SCHEMA, EVENT_KINDS

    known = frozenset(EVENT_KINDS)
    errors: list[str] = []
    expected_seq = 0
    last_t = float("-inf")
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            errors.append(f"events line {number}: does not parse: {error}")
            continue
        if not isinstance(record, Mapping):
            errors.append(f"events line {number}: not a JSON object")
            continue
        if record.get("schema") != EVENT_SCHEMA:
            errors.append(
                f"events line {number}: schema is {record.get('schema')!r}, "
                f"expected {EVENT_SCHEMA}"
            )
        kind = record.get("kind")
        if kind not in known:
            errors.append(f"events line {number}: unknown event kind {kind!r}")
        seq = record.get("seq")
        if seq != expected_seq:
            errors.append(
                f"events line {number}: seq is {seq!r}, expected {expected_seq} "
                "(gap or reorder in the stream)"
            )
            if isinstance(seq, int):
                expected_seq = seq
        expected_seq += 1
        t = record.get("t")
        if not isinstance(t, (int, float)):
            errors.append(f"events line {number}: t is {t!r}, expected a number")
        elif t < last_t:
            errors.append(
                f"events line {number}: t went backwards ({t} after {last_t})"
            )
        else:
            last_t = float(t)
        if not isinstance(record.get("fields", {}), Mapping):
            errors.append(f"events line {number}: fields must be a mapping")
    return errors


def _count_spans(tree: Mapping) -> int:
    """Non-root span count of an exported span tree."""
    return sum(1 + _count_spans(child) for child in tree.get("children", ()))


def crosscheck_events(lines: Sequence[str], manifest: Mapping) -> list[str]:
    """Consistency errors between an event log and its run manifest.

    The two views of one run must agree: the stream's ``stage.finish``
    count must equal the number of non-root spans in the manifest's
    span tree, and every per-kind count in the manifest's
    ``event_summary`` must be covered by the log.  The log may carry
    *extra* events — the CLI's session bus also records cache
    interactions that happen around the run — but it can never carry
    fewer than the manifest claims.
    """
    errors: list[str] = []
    counts: dict[str, int] = {}
    for line in lines:
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue  # already reported by validate_events
        if not isinstance(record, Mapping):
            continue  # likewise
        kind = str(record.get("kind"))
        counts[kind] = counts.get(kind, 0) + 1
    n_spans = _count_spans(manifest.get("span_tree", {}))
    n_finishes = counts.get("stage.finish", 0)
    if n_finishes != n_spans:
        errors.append(
            f"events/manifest: {n_finishes} stage.finish event(s) but "
            f"{n_spans} non-root span(s) in the manifest span tree"
        )
    summary = manifest.get("event_summary")
    if isinstance(summary, Mapping):
        for kind in sorted(summary):
            claimed = int(summary[kind])
            kept = counts.get(kind, 0)
            if kept < claimed:
                errors.append(
                    f"events/manifest: event_summary claims {claimed} "
                    f"{kind!r} event(s), the log has {kept}"
                )
    return errors


def validate_run_store(root: str | Path) -> dict[str, list[str]]:
    """Per-file errors across a run store; empty dict means valid.

    Walks every stored run (:meth:`~repro.obs.history.RunStore.run_files`)
    and checks the file is a JSON object, the manifest validates, the
    file lives under its manifest's fingerprint directory, and its name
    is the manifest's content address — the store's append-only
    guarantee rests on that address, so a file edited in place fails
    here.  The event-log and window sidecars next to it are checked too.
    """
    from repro.obs.history import RUN_ID_LENGTH, RunStore
    from repro.obs.manifest import RunManifest

    failures: dict[str, list[str]] = {}
    for path in RunStore(root).run_files():
        errors = failures.setdefault(str(path), [])
        payload = _read_object(path, "run file", errors)
        if payload is None:
            continue
        errors.extend(validate_manifest(payload))
        if schema_error(payload.get("schema")) is not None:
            continue  # an unreadable layout is one error, not a cascade
        fingerprint = payload.get("fingerprint")
        if path.parent.name != fingerprint:
            errors.append(
                f"stored under directory {path.parent.name!r}, "
                f"manifest fingerprint is {fingerprint!r}"
            )
        try:
            content_id = RunManifest.from_dict(payload).content_id()
        except Exception as error:  # broken payloads already reported above
            errors.append(f"content address not computable: {error}")
        else:
            if content_id[:RUN_ID_LENGTH] != path.stem:
                errors.append(
                    f"run id {path.stem!r} does not match content address "
                    f"{content_id[:RUN_ID_LENGTH]!r} (file edited in place?)"
                )
        events_file = path.with_name(f"{path.stem}.events.jsonl")
        if events_file.is_file():
            lines = events_file.read_text(encoding="utf-8").splitlines()
            errors.extend(validate_events(lines))
            errors.extend(crosscheck_events(lines, payload))
        windows_file = path.with_name(f"{path.stem}.windows.json")
        if windows_file.is_file():
            windows_payload = _read_object(windows_file, "windows sidecar", errors)
            if windows_payload is not None:
                errors.extend(validate_windows(windows_payload, manifest=payload))
    return {path: errors for path, errors in failures.items() if errors}


def _read_object(path: str | Path, what: str, errors: list[str]) -> Mapping | None:
    """The JSON object at ``path``, or ``None`` after one line in ``errors``.

    A missing, empty, truncated or non-object file is reported, not
    raised, as ``<what>: <Error>: ...`` or ``<what>: not a JSON object``.
    ``what`` is the caller's prefix: a command-line flag and its path
    (``--manifest: m.json``), or the role of a stored file whose path
    the store report already names (``run file``).
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        errors.append(f"{what}: {type(error).__name__}: {error}")
        return None
    if not isinstance(payload, Mapping):
        errors.append(f"{what}: not a JSON object")
        return None
    return payload


#: The flags that name something to validate, in report order.
INPUTS = ("metrics", "manifest", "events", "windows", "model", "runs")


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Declare the validate flags on ``parser``.

    The one declaration behind both front-ends: ``python -m
    repro.obs.validate`` and ``repro obs validate``.
    """
    parser.add_argument("--metrics", default=None, help="metrics snapshot JSON path")
    parser.add_argument("--manifest", default=None, help="run manifest JSON path")
    parser.add_argument(
        "--events",
        default=None,
        metavar="JSONL",
        help="event log (JSON lines) to validate; with --manifest the "
        "stream is also cross-checked against the manifest's span tree "
        "and event summary",
    )
    parser.add_argument(
        "--windows",
        default=None,
        metavar="JSON",
        help="window-report sidecar to validate; with --manifest its "
        "fingerprint is also checked against the manifest's",
    )
    parser.add_argument(
        "--runs",
        default=None,
        metavar="DIR",
        help="also validate every stored run under this run-store root",
    )
    parser.add_argument(
        "--model",
        default=None,
        metavar="JSON",
        help="exported model artifact to validate: schema/kind markers, "
        "the recomputed content address, per-dimension pattern arity, "
        "root-pattern totality and mask-consistency",
    )
    parser.add_argument(
        "--no-require-scenario",
        dest="require_scenario",
        action="store_false",
        help="skip the required-scenario-metrics completeness check",
    )


def run(args: argparse.Namespace) -> int:
    """Validate every input ``args`` names; exit 1 on any error."""
    errors: list[str] = []
    if args.metrics:
        payload = _read_object(args.metrics, f"--metrics: {args.metrics}", errors)
        if payload is not None:
            errors.extend(
                validate_metrics(payload, require_scenario=args.require_scenario)
            )
    manifest_payload = None
    if args.manifest:
        manifest_payload = _read_object(args.manifest, f"--manifest: {args.manifest}", errors)
        if manifest_payload is not None:
            errors.extend(validate_manifest(manifest_payload))
    if args.events:
        try:
            lines = Path(args.events).read_text(encoding="utf-8").splitlines()
        except (OSError, ValueError) as error:
            errors.append(f"--events: {args.events}: {type(error).__name__}: {error}")
        else:
            errors.extend(validate_events(lines))
            if manifest_payload is not None:
                errors.extend(crosscheck_events(lines, manifest_payload))
    if args.windows:
        windows_payload = _read_object(args.windows, f"--windows: {args.windows}", errors)
        if windows_payload is not None:
            errors.extend(
                validate_windows(windows_payload, manifest=manifest_payload)
            )
    if args.model:
        from repro.serve.model import validate_model

        model_payload = _read_object(args.model, f"--model: {args.model}", errors)
        if model_payload is not None:
            errors.extend(validate_model(model_payload))
    if args.runs:
        for path, file_errors in sorted(validate_run_store(args.runs).items()):
            errors.extend(f"{path}: {error}" for error in file_errors)
    for error in errors:
        print(error, file=sys.stderr)
    if not errors:
        checked = [str(getattr(args, name)) for name in INPUTS if getattr(args, name)]
        print(f"ok: {', '.join(checked)} conform to the documented schema")
    return 1 if errors else 0


def main(argv: Sequence[str] | None = None) -> int:
    """Validate emitted observability JSON files; exit 1 on any error."""
    parser = argparse.ArgumentParser(
        prog="repro.obs.validate",
        description="validate --metrics-out / --manifest output against the catalogue",
    )
    add_arguments(parser)
    args = parser.parse_args(argv)
    if not any(getattr(args, name) for name in INPUTS):
        parser.error(
            "nothing to validate: pass --metrics, --manifest, --events, "
            "--windows, --model and/or --runs"
        )
    return run(args)


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    raise SystemExit(main())
