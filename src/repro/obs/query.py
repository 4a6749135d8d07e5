"""The longitudinal analytics frame: every stored run, one queryable table.

The run store (:mod:`repro.obs.history`) accumulates manifests;
:mod:`repro.obs.diff` compares exactly two of them.  This module is the
third step the paper's framing asks for — *combining observation
perspectives over time* — by materializing **all** stored runs into one
columnar cross-run frame keyed by ``(fingerprint, run_id, created_at)``:

* :func:`build_frame` loads the store (through the persisted,
  incrementally refreshed :class:`QueryIndex`) into a
  :class:`QueryFrame` whose columns are resolved on demand from the
  small target-selector grammar every detector rule of
  :mod:`repro.obs.health` resolves through:

  ========================  ==================================================
  selector                  resolves to (per run)
  ========================  ==================================================
  ``metric:<key>``          scalar via :func:`metric_value` (exact keys,
                            bare names summing labels, ``<sketch>:pNN``
                            quantiles)
  ``series:<name>``         the run's per-window series (a vector)
  ``golden:deviations``     count of self-reported golden deviations
  ``span:<name>``           wall seconds of that span; ``span:<name>/attr``
                            reads a span attribute (``cpu_seconds``,
                            ``max_rss_kb``; every span since manifest
                            schema 7 carries both).  Spans
                            replayed from the stage store (``cache: hit``)
                            resolve to ``None`` — replay milliseconds are
                            not comparable to compute seconds
                            (:func:`span_reading`, the rule ``obs diff``
                            compares stages by too).
  ========================  ==================================================

* :func:`run_query` selects targets, filters by config fingerprint,
  aggregates (``min``/``max``/``mean``/``pNN``) and renders as a text
  table, JSON or an OpenMetrics exposition — the engine behind
  ``repro obs query``.

Everything here is a pure function of the stored payloads: frame
construction is deterministic (``QueryFrame.digest`` is digest-checked
in the tests and the query bench), and the index refresh never loads a
manifest it has already indexed.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from repro.obs.history import RUN_ID_LENGTH, RunStore
from repro.obs.log import get_logger
from repro.obs.metrics import base_name
from repro.obs.sketch import sketch_quantile_from_payload
from repro.util.canonical import canonical_digest
from repro.util.validation import require

log = get_logger("obs.query")

#: Persisted query-index file name under the run-store root.
QUERY_INDEX_NAME = "query_index.json"

#: Query-index schema version; bump on incompatible row layout changes.
#: 2: row metrics are metrics-snapshot schema 3, as the run store's
#:    legacy upgrade reads them.
QUERY_INDEX_SCHEMA = 2

#: Target schemes the selector grammar understands.
TARGET_SCHEMES = ("metric", "series", "golden", "span")

#: Span attributes a ``span:<name>/<attr>`` selector may read.
SPAN_ATTRS = ("seconds", "cpu_seconds", "max_rss_kb")

#: Aggregations :func:`aggregate` understands (plus ``pNN`` quantiles).
AGGREGATES = ("min", "max", "mean")

#: Manifest sections a query-index row keeps.  Everything a target
#: selector can touch survives; the heavyweight rest (full config,
#: event summaries) stays behind in the manifest file.
_ROW_SECTIONS = (
    "metrics",
    "span_tree",
    "golden_deviations",
    "stage_fingerprints",
    "health_summary",
)


def parse_target(target: str) -> tuple[str, str]:
    """Split ``scheme:key``, validating the scheme."""
    scheme, colon, key = target.partition(":")
    require(
        bool(colon) and scheme in TARGET_SCHEMES,
        f"unknown target {target!r}: expected one of "
        + ", ".join(f"{s}:<key>" for s in TARGET_SCHEMES),
    )
    require(bool(key), f"target {target!r} names no key")
    return scheme, key


def _walk_spans(tree: Mapping) -> Iterator[Mapping]:
    yield tree
    for child in tree.get("children", ()):
        yield from _walk_spans(child)


def _span_value(tree: Mapping, key: str) -> float | None:
    """Resolve a ``span:`` key: ``<name>`` or ``<name>/<attr>``."""
    name, _slash, attr = key.partition("/")
    attr = attr or "seconds"
    require(
        attr in SPAN_ATTRS,
        f"unknown span attribute {attr!r}: expected one of {SPAN_ATTRS}",
    )
    for span in _walk_spans(tree):
        if span.get("name") == name:
            return span_reading(span, attr)
    return None


def span_reading(span: Mapping, attr: str = "seconds") -> float | None:
    """One exported span's comparable ``seconds``/``cpu_seconds``/``max_rss_kb``.

    A stage replayed from the stage store (``cache: hit``) loads a
    pickle in milliseconds; its readings say nothing about the compute
    cost a series or a run diff compares, so a replay reads ``None``.
    """
    attributes = span.get("attributes", {})
    if attributes.get("cache") == "hit":
        return None
    if attr == "seconds":
        return float(span.get("seconds", 0.0))
    value = attributes.get(attr)
    return None if value is None else float(value)


def scalar_metrics(metrics: Mapping) -> dict[str, float]:
    """Every counter and gauge of a metrics snapshot, by snapshot key."""
    out: dict[str, float] = {}
    for section in ("counters", "gauges"):
        for key, value in metrics.get(section, {}).items():
            out[key] = float(value)
    return out


def metric_value(payload: Mapping, metric: str) -> float | None:
    """Resolve a ``metric:`` key against one manifest payload.

    ``metric`` is an exact snapshot key (labels included, e.g.
    ``epm.clusters{dimension=mu}``), a bare metric name, which sums
    every labelled counter/gauge sharing that base name, or a
    distribution quantile as ``<key>:pNN`` (e.g.
    ``lsh.bucket_size:p50``) — estimated from the sketch section
    within the sketch's relative error.  A bare ``<key>`` matching
    several labelled sketches is ambiguous and reads as ``None``.
    """
    match = re.fullmatch(r"(.+):p(\d+(?:\.\d+)?)", metric)
    if match:
        key, percent = match.group(1), float(match.group(2))
        if not 0.0 <= percent <= 100.0:
            return None
        sketches = payload.get("metrics", {}).get("sketches", {})
        candidates = (
            [sketches[key]]
            if key in sketches
            else [value for k, value in sketches.items() if base_name(k) == key]
        )
        if len(candidates) != 1:
            return None  # absent, or ambiguous across labels
        return sketch_quantile_from_payload(candidates[0], percent / 100.0)
    scalars = scalar_metrics(payload.get("metrics", {}))
    if metric in scalars:
        return scalars[metric]
    summed = [value for key, value in scalars.items() if base_name(key) == metric]
    if summed:
        return float(sum(summed))
    return None


def resolve_target(
    manifest: Mapping, windows: Mapping | None, target: str
) -> float | list[float] | None:
    """One run's value for ``target`` — scalar, vector, or ``None``.

    ``None`` means the run carries no such telemetry (no window report
    stored, a metric never emitted, a replayed span): absent, not zero.
    """
    scheme, key = parse_target(target)
    if scheme == "metric":
        return metric_value(manifest, key)
    if scheme == "golden":
        require(key == "deviations", f"unknown golden key {key!r}")
        return float(len(manifest.get("golden_deviations", [])))
    if scheme == "span":
        return _span_value(manifest.get("span_tree", {}), key)
    values = (windows or {}).get("series", {}).get(key)
    if values is None:
        return None
    return [float(v) for v in values]


def aggregate(values: Sequence[float], agg: str) -> float | None:
    """Reduce ``values`` with ``min``/``max``/``mean`` or ``pNN``.

    ``None`` entries are dropped first (absent telemetry never skews an
    aggregate); an all-absent column aggregates to ``None``.  ``pNN``
    quantiles interpolate linearly between order statistics, the same
    convention as ``numpy.percentile(..., method="linear")``.
    """
    present = [float(v) for v in values if v is not None]
    if not present:
        return None
    if agg == "min":
        return min(present)
    if agg == "max":
        return max(present)
    if agg == "mean":
        return sum(present) / len(present)
    match = re.fullmatch(r"p(\d+(?:\.\d+)?)", agg)
    require(
        match is not None,
        f"unknown aggregation {agg!r}: expected min, max, mean or pNN",
    )
    percent = float(match.group(1))
    require(0.0 <= percent <= 100.0, f"quantile {agg!r} out of range")
    ordered = sorted(present)
    rank = (len(ordered) - 1) * percent / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


@dataclass(frozen=True)
class RunRow:
    """One stored run's slice of the cross-run frame."""

    run_id: str
    fingerprint: str
    seed: int
    created_at: str
    #: Reduced manifest payload (:data:`_ROW_SECTIONS` only).
    manifest: Mapping
    #: The run's window-report payload, when one was stored.
    windows: Mapping | None = None
    #: Canonical digest of the row content, persisted in the query
    #: index so a warm frame digest never re-canonicalizes manifests.
    #: Empty means "not computed yet" (:meth:`content_digest` fills in).
    digest: str = ""

    def _core_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "fingerprint": self.fingerprint,
            "seed": self.seed,
            "created_at": self.created_at,
            "manifest": dict(self.manifest),
            "windows": dict(self.windows) if self.windows is not None else None,
        }

    def content_digest(self) -> str:
        return self.digest or canonical_digest(self._core_dict())

    def as_dict(self) -> dict:
        return {**self._core_dict(), "digest": self.content_digest()}


def _slim_manifest(payload: Mapping) -> dict:
    """The target-resolvable subset of a manifest payload."""
    return {key: payload[key] for key in _ROW_SECTIONS if key in payload}


def _row_from_payload(
    payload: Mapping, *, run_id: str | None = None, windows: Mapping | None = None
) -> RunRow:
    return RunRow(
        run_id=run_id or canonical_digest(dict(payload))[:RUN_ID_LENGTH],
        fingerprint=str(payload.get("fingerprint", "")),
        seed=int(payload.get("seed", 0)),
        created_at=str(payload.get("created_at", "")),
        manifest=_slim_manifest(payload),
        windows=dict(windows) if windows is not None else None,
    )


class QueryFrame:
    """Columnar view over stored runs, keyed ``(fingerprint, run_id,
    created_at)`` and ordered by ``(created_at, run_id)``.

    Key columns are materialized eagerly; target columns are resolved
    lazily (and cached) because the target space is open-ended.
    """

    def __init__(self, rows: Sequence[RunRow]) -> None:
        self.rows = sorted(rows, key=lambda r: (r.created_at, r.run_id))
        self._columns: dict[str, list] = {}
        self._digest: str | None = None

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, target: str) -> list:
        """Per-run values for ``target``, row-aligned (cached)."""
        if target not in self._columns:
            parse_target(target)  # fail fast on a malformed selector
            self._columns[target] = [
                resolve_target(row.manifest, row.windows, target)
                for row in self.rows
            ]
        return self._columns[target]

    def filter(
        self, *, fingerprint: str | None = None, limit: int | None = None
    ) -> "QueryFrame":
        """Rows of one config (fingerprint prefix >= 4 chars) and/or the
        newest ``limit`` runs."""
        rows = self.rows
        if fingerprint is not None:
            require(
                len(fingerprint) >= 4,
                f"fingerprint prefix {fingerprint!r} too short (need >= 4 chars)",
            )
            rows = [r for r in rows if r.fingerprint.startswith(fingerprint)]
        if limit is not None:
            require(limit >= 1, f"limit must be >= 1, got {limit}")
            rows = rows[-limit:]
        return QueryFrame(rows)

    def grouped(self) -> dict[str, "QueryFrame"]:
        """One run-ordered sub-frame per config fingerprint.

        Regression detection runs per group: cross-config series mix
        apples and oranges (different scales, different stage sets).
        """
        groups: dict[str, list[RunRow]] = {}
        for row in self.rows:
            groups.setdefault(row.fingerprint, []).append(row)
        return {fp: QueryFrame(rows) for fp, rows in sorted(groups.items())}

    def as_dict(self) -> dict:
        return {"rows": [row.as_dict() for row in self.rows]}

    def digest(self) -> str:
        """Canonical content address of the frame.

        Two constructions over the same store must agree byte-for-byte
        regardless of filesystem enumeration order or index warmth —
        checked in the tests and the query bench.  Combines the rows'
        own content digests (persisted in the query index), so a warm
        frame digest costs O(rows), not a re-canonicalization of every
        stored manifest.
        """
        if self._digest is None:
            self._digest = canonical_digest(
                {"rows": [[row.run_id, row.content_digest()] for row in self.rows]}
            )
        return self._digest


def frame_from_payloads(
    payloads: Sequence[Mapping],
    windows: Sequence[Mapping | None] | None = None,
) -> QueryFrame:
    """A frame over bare manifest payloads (no store required).

    The tests use this to run the regression detector over manifests
    that were never persisted.
    """
    sidecars = list(windows) if windows is not None else [None] * len(payloads)
    require(
        len(sidecars) == len(payloads),
        "windows must align with payloads one-to-one",
    )
    return QueryFrame(
        [
            _row_from_payload(payload, windows=sidecar)
            for payload, sidecar in zip(payloads, sidecars)
        ]
    )


class QueryIndex:
    """The persisted, incrementally refreshed materialization of a store.

    Lives at ``<store root>/query_index.json``: one slim row per stored
    run (:data:`_ROW_SECTIONS` of the manifest plus the window series),
    ordered by ``(created_at, run_id)``.  :meth:`refresh` only loads
    manifests whose ``run_id`` the index has not seen and drops rows
    whose run left the store — the incremental reindex that keeps
    ``repro obs query`` O(new runs), not O(store).
    """

    def __init__(self, store: RunStore) -> None:
        self.store = store

    @property
    def path(self) -> Path:
        return self.store.root / QUERY_INDEX_NAME

    def load_rows(self) -> list[dict] | None:
        """Raw persisted rows, or ``None`` when there is no usable index.

        The index is derived data, always rewritten atomically: a file
        that does not decode (truncated by a crash or a full disk) is
        treated like a superseded layout and rebuilt from scratch.
        """
        if not self.path.is_file():
            return None
        try:
            payload = json.loads(self.path.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            log.warning("query index does not decode; rebuilding", extra={"path": str(self.path)})
            return None
        if not isinstance(payload, dict) or payload.get("schema") != QUERY_INDEX_SCHEMA:
            return None  # superseded layout: rebuilt from scratch
        return list(payload.get("rows", []))

    def _build_row(self, entry: Mapping) -> dict:
        payload = self.store.load_payload(entry["run_id"])
        windows = self.store.load_windows(entry["run_id"])
        return _row_from_payload(
            payload, run_id=str(entry["run_id"]), windows=windows
        ).as_dict()

    def refresh(self) -> tuple[int, int]:
        """Bring the index up to date; returns ``(added, dropped)``.

        A no-op refresh (nothing new, nothing gone) never rewrites the
        file, so repeated queries against an unchanged store cost one
        JSON read.
        """
        entries = self.store.entries()
        known = {row["run_id"]: row for row in self.load_rows() or []}
        wanted = [str(entry["run_id"]) for entry in entries]
        added = [e for e in entries if str(e["run_id"]) not in known]
        dropped = set(known) - set(wanted)
        if not added and not dropped and self.path.is_file():
            return (0, 0)
        rows = [
            known[run_id] if run_id in known else None for run_id in wanted
        ]
        for position, entry in enumerate(entries):
            if rows[position] is None:
                rows[position] = self._build_row(entry)
        self._write(rows)
        if added or dropped:
            log.debug(
                "query index refreshed",
                extra={"added": len(added), "dropped": len(dropped)},
            )
        return (len(added), len(dropped))

    def rebuild_rows(self) -> list[dict]:
        """Fresh rows straight from the store, ignoring the persisted file."""
        return [self._build_row(entry) for entry in self.store.entries()]

    def _write(self, rows: Sequence[Mapping]) -> None:
        payload = {"schema": QUERY_INDEX_SCHEMA, "rows": list(rows)}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(
            json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
        os.replace(tmp, self.path)


def validate_query_index(root: str | Path) -> list[str]:
    """Errors in a persisted query index; empty list means valid.

    A missing index is valid (it materializes on first query); a stale
    or hand-edited one is not — every row must match a fresh rebuild
    from the stored manifests, row for row.
    """
    store = RunStore(root)
    index = QueryIndex(store)
    persisted = index.load_rows()
    if persisted is None:
        if index.path.is_file():
            return [f"query index {index.path}: unreadable or unsupported schema"]
        return []
    fresh = index.rebuild_rows()
    errors: list[str] = []
    persisted_ids = [row.get("run_id") for row in persisted]
    fresh_ids = [row["run_id"] for row in fresh]
    for run_id in fresh_ids:
        if run_id not in persisted_ids:
            errors.append(f"query index: stored run {run_id} not indexed (stale)")
    for run_id in persisted_ids:
        if run_id not in fresh_ids:
            errors.append(f"query index: row {run_id} has no stored run (orphaned)")
    by_id = {row["run_id"]: row for row in fresh}
    for row in persisted:
        run_id = row.get("run_id")
        if run_id in by_id and canonical_digest(row) != canonical_digest(
            by_id[run_id]
        ):
            errors.append(
                f"query index: row {run_id} does not match the stored "
                "manifest (index edited or manifest changed in place)"
            )
    return errors


def build_frame(
    store: RunStore,
    *,
    fingerprint: str | None = None,
    limit: int | None = None,
    include: Sequence[str | Path] = (),
    use_index: bool = True,
) -> QueryFrame:
    """Materialize the store (plus ``include`` manifest files) as a frame.

    With ``use_index`` (the default) the persisted :class:`QueryIndex`
    is refreshed incrementally and rows come from it; without it, every
    manifest is loaded directly (what the index validator compares
    against).  ``include`` adds bare manifest files — e.g. a committed
    CI reference — as extra rows; a ``<path>.windows.json`` sidecar
    rides along when present (``reference.json`` pairs with
    ``reference.windows.json``).
    """
    index = QueryIndex(store)
    if use_index and store.entries():
        index.refresh()
        raw = index.load_rows() or []
    else:
        raw = index.rebuild_rows()
    rows = [
        RunRow(
            run_id=str(row["run_id"]),
            fingerprint=str(row["fingerprint"]),
            seed=int(row["seed"]),
            created_at=str(row["created_at"]),
            manifest=row["manifest"],
            windows=row.get("windows"),
            digest=str(row.get("digest", "")),
        )
        for row in raw
    ]
    for ref in include:
        path = Path(ref)
        require(path.is_file(), f"included manifest {path} does not exist")
        payload = store.load_payload(str(path))
        rows.append(_row_from_payload(payload, windows=store.load_windows(str(path))))
    return QueryFrame(rows).filter(fingerprint=fingerprint, limit=limit)


@dataclass
class QueryResult:
    """One query's rows, per-target aggregates and provenance digest."""

    targets: tuple[str, ...]
    agg: str | None
    rows: list[dict]
    aggregates: dict[str, float | None]
    frame_digest: str

    def as_dict(self) -> dict:
        return {
            "targets": list(self.targets),
            "agg": self.agg,
            "rows": self.rows,
            "aggregates": dict(self.aggregates) if self.agg else {},
            "frame_digest": self.frame_digest,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2)

    def render(self) -> str:
        """Fixed-width table: one row per run, one column per target."""
        if not self.rows:
            return "query: no stored runs match"
        headers = ["run_id", "fingerprint", "created_at", *self.targets]
        table = [headers]
        for row in self.rows:
            rendered = [
                row["run_id"],
                row["fingerprint"][:12] + "..",
                row["created_at"] or "-",
            ]
            for target in self.targets:
                rendered.append(_render_cell(row["values"][target]))
            table.append(rendered)
        if self.agg:
            footer = [f"{self.agg}", "", ""]
            for target in self.targets:
                footer.append(_render_cell(self.aggregates.get(target)))
            table.append(footer)
        widths = [
            max(len(line[column]) for line in table)
            for column in range(len(headers))
        ]
        lines = [
            "  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip()
            for line in table
        ]
        if self.agg:
            lines.insert(len(lines) - 1, "-" * len(lines[0]))
        return "\n".join(lines)

    def to_openmetrics(self) -> str:
        """OpenMetrics exposition: one gauge sample per (run, target).

        Aggregates land as ``repro_query_aggregate`` samples; the
        mandatory ``# EOF`` terminator closes the exposition.
        """
        lines = ["# TYPE repro_query gauge"]
        for row in self.rows:
            for target in self.targets:
                value = row["values"][target]
                if isinstance(value, list) or value is None:
                    continue
                lines.append(
                    f'repro_query{{run_id="{row["run_id"]}",'
                    f'target="{target}"}} {value:g}'
                )
        if self.agg:
            lines.append("# TYPE repro_query_aggregate gauge")
            for target in self.targets:
                value = self.aggregates.get(target)
                if value is None:
                    continue
                lines.append(
                    f'repro_query_aggregate{{agg="{self.agg}",'
                    f'target="{target}"}} {value:g}'
                )
        lines.append("# EOF")
        return "\n".join(lines) + "\n"


def _render_cell(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, list):
        return "[" + ", ".join(f"{v:g}" for v in value) + "]"
    return f"{value:g}"


def run_query(
    frame: QueryFrame,
    targets: Sequence[str],
    *,
    agg: str | None = None,
    fingerprint: str | None = None,
    limit: int | None = None,
) -> QueryResult:
    """Select ``targets`` over ``frame``; optionally filter and aggregate.

    Scalar targets aggregate across runs; a ``series:`` target is first
    reduced per run (same aggregation over its windows), then across
    runs — so ``--agg p50`` over ``series:events`` answers "the median
    run's median window".
    """
    require(bool(targets), "query needs at least one target")
    if agg is not None:
        aggregate((0.0,), agg)  # fail fast on a malformed aggregation
    frame = frame.filter(fingerprint=fingerprint, limit=limit)
    columns = {target: frame.column(target) for target in targets}
    rows = []
    for position, row in enumerate(frame.rows):
        values = {}
        for target in targets:
            value = columns[target][position]
            if agg is not None and isinstance(value, list):
                value = aggregate(value, agg)
            values[target] = value
        rows.append(
            {
                "run_id": row.run_id,
                "fingerprint": row.fingerprint,
                "seed": row.seed,
                "created_at": row.created_at,
                "values": values,
            }
        )
    aggregates: dict[str, float | None] = {}
    if agg is not None:
        for target in targets:
            aggregates[target] = aggregate(
                [row["values"][target] for row in rows], agg
            )
    return QueryResult(
        targets=tuple(targets),
        agg=agg,
        rows=rows,
        aggregates=aggregates,
        frame_digest=frame.digest(),
    )
