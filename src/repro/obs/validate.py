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
from typing import Mapping, Sequence

from repro.obs.manifest import MANIFEST_SCHEMA, SUPPORTED_MANIFEST_SCHEMAS
from repro.obs.metrics import (
    SNAPSHOT_SCHEMA,
    SUPPORTED_SNAPSHOT_SCHEMAS,
    base_name,
)

#: Every documented metric name and its kind.  One entry per name in
#: ``docs/ARCHITECTURE.md``'s catalogue table — keep the two in sync.
METRIC_CATALOGUE: dict[str, str] = {
    # honeypot layer
    "honeypot.events_observed": "counter",
    "honeypot.samples_collected": "counter",
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
    "sandbox.batch_size": "histogram",
    "lsh.unique_profiles": "gauge",
    "lsh.candidate_pairs": "counter",
    "lsh.pairs_verified": "counter",
    "lsh.bucket_size": "histogram",
    "lsh.bucket_size_sketch": "sketch",
    "lsh.buckets_skipped": "counter",
    "lsh.clusters": "gauge",
    # sharded observation (only with ScenarioConfig.shards > 0)
    "shards.observed": "counter",
    "shards.events": "histogram",
    "shards.events_sketch": "sketch",
    "shards.shard_events": "watermark",
    "shards.staged_observations": "watermark",
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
    "window.events": "histogram",
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
    # parallel executors.  chunks/items/chunk_seconds/worker_failures
    # are deliberately unlabelled: the chunk plan is backend-independent,
    # so their totals must compare equal across serial/thread/process.
    "executor.chunks": "counter",
    "executor.items": "counter",
    "executor.chunk_seconds": "histogram",
    "executor.chunk_seconds_sketch": "sketch",
    "executor.worker_failures": "counter",
    # labelled by backend=serial|thread|process
    "executor.jobs": "gauge",
    # resource watermarks (commutative max-merges; RSS is Unix-only)
    "executor.chunk_backlog": "watermark",
    "executor.event_queue_depth": "watermark",
    "worker.peak_rss_kb": "watermark",
    # bounded event transports (labelled by kind=<event>,transport=<name>)
    "events.dropped": "counter",
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
        "executor.chunks",
        "executor.items",
        "executor.chunk_seconds",
        "executor.chunk_seconds_sketch",
        "executor.chunk_backlog",
        "executor.jobs",
        "lsh.bucket_size_sketch",
    }
)

_KIND_SECTIONS = (
    ("counters", "counter"),
    ("gauges", "gauge"),
    ("histograms", "histogram"),
    ("sketches", "sketch"),
    ("watermarks", "watermark"),
)


def validate_metrics(
    payload: Mapping, *, require_scenario: bool = False
) -> list[str]:
    """Errors in a metrics-snapshot dict; empty list means valid.

    Checks the schema version, that every emitted name is in
    :data:`METRIC_CATALOGUE` under the right kind, and (with
    ``require_scenario``) that every name in
    :data:`REQUIRED_SCENARIO_METRICS` actually appears.
    """
    errors: list[str] = []
    if payload.get("schema") not in SUPPORTED_SNAPSHOT_SCHEMAS:
        errors.append(
            f"metrics: schema is {payload.get('schema')!r}, expected one of "
            f"{SUPPORTED_SNAPSHOT_SCHEMAS} (current: {SNAPSHOT_SCHEMA})"
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


def validate_manifest(payload: Mapping) -> list[str]:
    """Errors in a run-manifest dict; empty list means valid.

    Accepts every schema in
    :data:`~repro.obs.manifest.SUPPORTED_MANIFEST_SCHEMAS` (stored runs
    from earlier layouts stay valid); the schema-2 fields
    (``created_at``, ``golden_deviations``) are only required from
    schema 2 on.
    """
    errors: list[str] = []
    schema = payload.get("schema")
    if schema not in SUPPORTED_MANIFEST_SCHEMAS:
        errors.append(
            f"manifest: schema is {schema!r}, expected one of "
            f"{SUPPORTED_MANIFEST_SCHEMAS} (current: {MANIFEST_SCHEMA})"
        )
    fingerprint = payload.get("fingerprint")
    if not (isinstance(fingerprint, str) and len(fingerprint) == 64):
        errors.append("manifest: fingerprint must be a 64-hex-char string")
    if not isinstance(payload.get("seed"), int):
        errors.append("manifest: seed must be an integer")
    for key in ("config", "span_tree", "metrics", "artifact_digests"):
        if not isinstance(payload.get(key), Mapping):
            errors.append(f"manifest: {key} must be a mapping")
    if not isinstance(payload.get("library_version"), str):
        errors.append("manifest: library_version must be a string")
    span_tree = payload.get("span_tree")
    if isinstance(span_tree, Mapping) and "name" not in span_tree:
        errors.append("manifest: span_tree root has no name")
    digests = payload.get("artifact_digests")
    if isinstance(digests, Mapping):
        if not digests:
            errors.append("manifest: artifact_digests is empty")
        for artifact, digest in digests.items():
            if not (isinstance(digest, str) and len(digest) == 64):
                errors.append(
                    f"manifest: digest of {artifact!r} is not a 64-hex-char string"
                )
    metrics = payload.get("metrics")
    if isinstance(metrics, Mapping) and metrics:
        errors.extend(validate_metrics(metrics))
    if isinstance(schema, int) and schema >= 2:
        if not isinstance(payload.get("created_at"), str):
            errors.append("manifest: created_at must be a string (schema >= 2)")
        deviations = payload.get("golden_deviations")
        if not isinstance(deviations, list) or not all(
            isinstance(d, str) for d in deviations
        ):
            errors.append(
                "manifest: golden_deviations must be a list of strings (schema >= 2)"
            )
    if isinstance(schema, int) and schema >= 4:
        stages = payload.get("stage_fingerprints")
        if not isinstance(stages, Mapping):
            errors.append(
                "manifest: stage_fingerprints must be a mapping (schema >= 4)"
            )
        else:
            for stage, fingerprint in stages.items():
                if not (isinstance(fingerprint, str) and len(fingerprint) == 64):
                    errors.append(
                        f"manifest: stage fingerprint of {stage!r} is not a "
                        "64-hex-char string"
                    )
        if isinstance(span_tree, Mapping):
            errors.extend(_check_span_cache_attributes(span_tree))
    if isinstance(schema, int) and schema >= 5:
        summary = payload.get("health_summary")
        if not isinstance(summary, Mapping):
            errors.append("manifest: health_summary must be a mapping (schema >= 5)")
        else:
            from repro.obs.health import SEVERITIES

            for severity, count in summary.items():
                if severity not in SEVERITIES:
                    errors.append(
                        f"manifest: health_summary severity {severity!r} is not "
                        f"one of {SEVERITIES} (schema >= 5)"
                    )
                elif not isinstance(count, int) or count < 0:
                    errors.append(
                        f"manifest: health_summary[{severity!r}] must be a "
                        "non-negative integer (schema >= 5)"
                    )
    if isinstance(schema, int) and schema >= 6:
        errors.extend(_check_event_drops(payload))
    return errors


def _check_event_drops(payload: Mapping) -> list[str]:
    """Schema-6 drop-accounting errors: structure of ``event_drops``
    plus its reconciliation against the ``events.dropped`` counters.

    Every dropped event must be accounted twice and consistently: the
    manifest's per-transport map and the metric counters (folded from
    the same :meth:`~repro.obs.events.EventBus.drop_counts` call) have
    to agree in both directions.
    """
    from repro.obs.events import EVENT_KINDS
    from repro.obs.metrics import parse_key

    errors: list[str] = []
    drops = payload.get("event_drops")
    if not isinstance(drops, Mapping):
        return ["manifest: event_drops must be a mapping (schema >= 6)"]
    known = frozenset(EVENT_KINDS)
    flat: dict[tuple[str, str], int] = {}
    for transport, kinds in drops.items():
        if not isinstance(kinds, Mapping):
            errors.append(
                f"manifest: event_drops[{transport!r}] must be a mapping"
            )
            continue
        for kind, count in kinds.items():
            if kind not in known:
                errors.append(
                    f"manifest: event_drops[{transport!r}] names unknown "
                    f"event kind {kind!r}"
                )
            if not isinstance(count, int) or count < 1:
                errors.append(
                    f"manifest: event_drops[{transport!r}][{kind!r}] must "
                    "be a positive integer"
                )
            else:
                flat[(str(transport), str(kind))] = count
    metrics = payload.get("metrics")
    if not (isinstance(metrics, Mapping) and metrics):
        return errors
    counted: dict[tuple[str, str], int] = {}
    for key, value in metrics.get("counters", {}).items():
        name, labels = parse_key(key)
        if name == "events.dropped":
            counted[(labels.get("transport", "?"), labels.get("kind", "?"))] = int(
                value
            )
    for (transport, kind), claimed in sorted(flat.items()):
        if counted.get((transport, kind)) != claimed:
            errors.append(
                f"manifest: event_drops claims {claimed} dropped "
                f"{kind!r} on {transport!r}, the events.dropped counter "
                f"says {counted.get((transport, kind))}"
            )
    for (transport, kind), value in sorted(counted.items()):
        if (transport, kind) not in flat:
            errors.append(
                f"manifest: events.dropped counter for {kind!r} on "
                f"{transport!r} ({value}) has no event_drops entry"
            )
    return errors


#: Legal values of the per-span ``cache`` attribute (schema >= 4):
#: replayed from the stage store, recomputed under an active store, or
#: computed with no store consulted.
SPAN_CACHE_STATUSES = frozenset({"hit", "miss", "off"})


def _check_span_cache_attributes(tree: Mapping) -> list[str]:
    """Errors for pipeline-stage spans without a valid ``cache`` attribute.

    Schema 4 manifests no longer assume a whole-run cache: every direct
    child of the root span (the pipeline stages) must say whether it
    was replayed (``hit``), recomputed (``miss``) or ran cache-less
    (``off``).  Nested spans (LSH sub-phases, enrichment batches) only
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
                f"{sorted(SPAN_CACHE_STATUSES)} (schema >= 4)"
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
    go backwards (the bus clock is monotonic; forwarded worker events
    are re-stamped on merge).  The expected sequence starts at the
    first record's ``seq`` rather than 0, so a size-rotated log — whose
    older lines moved to a backup file — still validates.
    """
    from repro.obs.events import EVENT_SCHEMA, EVENT_KINDS

    known = frozenset(EVENT_KINDS)
    errors: list[str] = []
    expected_seq: int | None = None
    last_t = float("-inf")
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            errors.append(f"events line {number}: does not parse: {error}")
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
        if expected_seq is None:
            expected_seq = seq if isinstance(seq, int) else 0  # rotated logs
        if seq != expected_seq:
            errors.append(
                f"events line {number}: seq is {seq!r}, expected {expected_seq} "
                "(gap or reorder in the stream)"
            )
            if isinstance(seq, int):
                expected_seq = seq
        expected_seq = (expected_seq or 0) + 1
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
    ``event_summary`` (schema >= 3, when present) must be covered by
    the log.  The log may carry *extra* events — the CLI's session bus
    also records cache interactions that happen around the run — but it
    can never carry fewer than the manifest claims *plus* whatever the
    manifest's ``event_drops`` (schema >= 6) admits the file sink
    rotated away: kept + dropped >= claimed, per kind.  Overflow may
    lose events from a sink, never from the accounting.
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
        kind = str(record.get("kind"))
        counts[kind] = counts.get(kind, 0) + 1
    n_spans = _count_spans(manifest.get("span_tree", {}))
    file_drops = manifest.get("event_drops", {})
    file_drops = (
        dict(file_drops.get("file", {})) if isinstance(file_drops, Mapping) else {}
    )
    n_finishes = counts.get("stage.finish", 0)
    n_dropped_finishes = int(file_drops.get("stage.finish", 0))
    if n_finishes + n_dropped_finishes < n_spans or n_finishes > n_spans:
        errors.append(
            f"events/manifest: {n_finishes} stage.finish event(s) "
            f"(+{n_dropped_finishes} drop-accounted) but {n_spans} "
            "non-root span(s) in the manifest span tree"
        )
    summary = manifest.get("event_summary")
    if isinstance(summary, Mapping):
        for kind in sorted(summary):
            claimed = int(summary[kind])
            kept = counts.get(kind, 0)
            dropped = int(file_drops.get(kind, 0))
            if kept + dropped < claimed:
                errors.append(
                    f"events/manifest: event_summary claims {claimed} "
                    f"{kind!r} event(s), the log has {kept} and only "
                    f"{dropped} are drop-accounted"
                )
    return errors


def validate_run_store(root: str | Path) -> dict[str, list[str]]:
    """Per-file errors across a run store; empty dict means valid.

    Checks the index parses, every indexed file exists, every stored
    manifest validates, the file lives under its manifest's fingerprint
    directory, and the run id matches the manifest's content address
    (the store's append-only guarantee rests on that address).
    """
    from repro.obs.history import RUN_ID_LENGTH, RunStore
    from repro.obs.manifest import RunManifest

    store = RunStore(root)
    failures: dict[str, list[str]] = {}
    index_key = str(store.index_path)
    if not store.index_path.is_file():
        # An empty (or not-yet-created) store is valid; stored runs
        # without an index are not.  Top-level files (e.g. a committed
        # reference manifest) are not stored runs.
        stray = sorted(store.root.glob("*/*.json"))
        if stray:
            return {
                index_key: [
                    "run store has stored runs but no index.json: "
                    + ", ".join(str(p) for p in stray[:5])
                ]
            }
        return {}
    try:
        entries = store.entries()
    except (json.JSONDecodeError, ValueError) as error:
        return {index_key: [f"index does not parse: {error}"]}
    for entry in entries:
        run_id = entry.get("run_id", "?")
        path = store.root / entry.get("path", f"{run_id}.json")
        errors: list[str] = []
        if not path.is_file():
            failures[str(path)] = ["indexed run file is missing"]
            continue
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as error:
            failures[str(path)] = [f"run file does not parse: {error}"]
            continue
        errors.extend(validate_manifest(payload))
        fingerprint = payload.get("fingerprint")
        if entry.get("fingerprint") != fingerprint:
            errors.append(
                f"index fingerprint {entry.get('fingerprint')!r} "
                f"does not match manifest {fingerprint!r}"
            )
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
            if content_id[:RUN_ID_LENGTH] != run_id:
                errors.append(
                    f"run id {run_id!r} does not match content address "
                    f"{content_id[:RUN_ID_LENGTH]!r} (file edited in place?)"
                )
        events_file = path.with_name(f"{path.stem}.events.jsonl")
        if events_file.is_file():
            lines = events_file.read_text(encoding="utf-8").splitlines()
            errors.extend(validate_events(lines))
            errors.extend(crosscheck_events(lines, payload))
        windows_file = path.with_name(f"{path.stem}.windows.json")
        if windows_file.is_file():
            try:
                windows_payload = json.loads(
                    windows_file.read_text(encoding="utf-8")
                )
            except json.JSONDecodeError as error:
                errors.append(f"windows sidecar does not parse: {error}")
            else:
                errors.extend(validate_windows(windows_payload, manifest=payload))
        if errors:
            failures[str(path)] = errors
    return failures


def main(argv: Sequence[str] | None = None) -> int:
    """Validate emitted observability JSON files; exit 1 on any error."""
    parser = argparse.ArgumentParser(
        prog="repro.obs.validate",
        description="validate --metrics-out / --manifest output against the catalogue",
    )
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
        "--rebuild-index",
        action="store_true",
        help="with --runs: regenerate a missing/corrupted index.json from "
        "the on-disk manifest tree before validating (refuses on content-"
        "address mismatch)",
    )
    parser.add_argument(
        "--query-index",
        action="store_true",
        help="with --runs: also check the persisted query index matches a "
        "fresh rebuild from the stored manifests",
    )
    parser.add_argument(
        "--no-require-scenario",
        dest="require_scenario",
        action="store_false",
        help="skip the required-scenario-metrics completeness check",
    )
    args = parser.parse_args(argv)
    if not any(
        (args.metrics, args.manifest, args.runs, args.events, args.windows, args.model)
    ):
        parser.error(
            "nothing to validate: pass --metrics, --manifest, --events, "
            "--windows, --model and/or --runs"
        )
    if (args.rebuild_index or args.query_index) and not args.runs:
        parser.error("--rebuild-index/--query-index need --runs")
    errors: list[str] = []
    if args.metrics:
        payload = json.loads(Path(args.metrics).read_text(encoding="utf-8"))
        errors.extend(
            validate_metrics(payload, require_scenario=args.require_scenario)
        )
    manifest_payload = None
    if args.manifest:
        manifest_payload = json.loads(Path(args.manifest).read_text(encoding="utf-8"))
        errors.extend(validate_manifest(manifest_payload))
    if args.events:
        lines = Path(args.events).read_text(encoding="utf-8").splitlines()
        errors.extend(validate_events(lines))
        if manifest_payload is not None:
            errors.extend(crosscheck_events(lines, manifest_payload))
    if args.windows:
        windows_payload = json.loads(Path(args.windows).read_text(encoding="utf-8"))
        errors.extend(validate_windows(windows_payload, manifest=manifest_payload))
    if args.model:
        from repro.serve.model import validate_model

        model_path = Path(args.model)
        if not model_path.is_file():
            errors.append(f"model: {model_path} does not exist")
        else:
            model_payload = json.loads(model_path.read_text(encoding="utf-8"))
            errors.extend(validate_model(model_payload))
    if args.runs:
        if args.rebuild_index:
            from repro.obs.history import RunStore

            try:
                count = RunStore(args.runs).rebuild_index()
            except ValueError as error:
                errors.append(f"rebuild-index: {error}")
            else:
                print(f"rebuilt index under {args.runs}: {count} run(s)")
        for path, file_errors in sorted(validate_run_store(args.runs).items()):
            errors.extend(f"{path}: {error}" for error in file_errors)
        if args.query_index:
            from repro.obs.query import validate_query_index

            errors.extend(validate_query_index(args.runs))
    for error in errors:
        print(error, file=sys.stderr)
    if not errors:
        checked = [
            p
            for p in (
                args.metrics,
                args.manifest,
                args.events,
                args.windows,
                args.model,
                args.runs,
            )
            if p
        ]
        print(f"ok: {', '.join(checked)} conform to the documented schema")
    return 1 if errors else 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    raise SystemExit(main())
