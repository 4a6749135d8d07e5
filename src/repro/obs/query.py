"""The longitudinal analytics frame: every stored run, one queryable table.

The run store (:mod:`repro.obs.history`) accumulates manifests;
:mod:`repro.obs.diff` compares exactly two of them.  This module is the
third step the paper's framing asks for — *combining observation
perspectives over time* — by materializing **all** stored runs into one
columnar cross-run frame keyed by ``(fingerprint, run_id, created_at)``:

* :func:`build_frame` walks the store, reading each manifest and its
  window sidecar once, into a :class:`QueryFrame` whose columns are
  resolved on demand from the small target-selector grammar every
  detector rule of :mod:`repro.obs.health` resolves through:

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
                            ``max_rss_kb``; every span carries both).
                            Spans replayed from the stage store
                            (``cache: hit``) resolve to ``None`` — replay
                            milliseconds are not comparable to compute
                            seconds (:func:`span_reading`, the rule
                            ``obs diff`` compares stages by too).
  ========================  ==================================================

* :func:`run_query` selects targets, filters by config fingerprint,
  aggregates (``min``/``max``/``mean``/``pNN``) and renders as a text
  table, JSON or an OpenMetrics exposition — the engine behind
  ``repro obs query``.

Everything here is a pure function of the stored payloads: frame
construction is deterministic, and ``QueryFrame.digest`` is checked in
the tests.  Nothing is persisted, so there is no derived file to go
stale.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from repro.obs.history import RUN_ID_LENGTH, RunStore, require_prefix
from repro.obs.metrics import base_name
from repro.obs.sketch import sketch_quantile_from_payload
from repro.util.canonical import canonical_digest
from repro.util.validation import require

#: Target schemes the selector grammar understands.
TARGET_SCHEMES = ("metric", "series", "golden", "span")

#: Span attributes a ``span:<name>/<attr>`` selector may read.
SPAN_ATTRS = ("seconds", "cpu_seconds", "max_rss_kb")

#: Aggregations :func:`aggregate` understands (plus ``pNN`` quantiles).
AGGREGATES = ("min", "max", "mean")


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
    #: The run's manifest payload.
    manifest: Mapping
    #: The run's window-report payload, when one was stored.
    windows: Mapping | None = None


def _row_from_payload(
    payload: Mapping, *, run_id: str | None = None, windows: Mapping | None = None
) -> RunRow:
    return RunRow(
        run_id=run_id or canonical_digest(dict(payload))[:RUN_ID_LENGTH],
        fingerprint=str(payload.get("fingerprint", "")),
        seed=int(payload.get("seed", 0)),
        created_at=str(payload.get("created_at", "")),
        manifest=payload,
        windows=windows,
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
            require_prefix(fingerprint, "fingerprint")
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

    def digest(self) -> str:
        """Canonical, order-insensitive content address of the frame.

        Each row contributes its ``run_id`` — the manifest's own
        content address — and the canonical digest of its window
        payload, so two constructions over the same store agree
        whatever the filesystem enumeration order, and no manifest is
        re-canonicalized.
        """
        if self._digest is None:
            rows = [
                [row.run_id, None if row.windows is None else canonical_digest(row.windows)]
                for row in self.rows
            ]
            self._digest = canonical_digest({"rows": rows})
        return self._digest


def build_frame(
    store: RunStore,
    *,
    fingerprint: str | None = None,
    limit: int | None = None,
    include: Sequence[str | Path] = (),
) -> QueryFrame:
    """Materialize the store (plus ``include`` manifest files) as a frame.

    Walks the store once (:meth:`RunStore.runs`), reading each manifest
    and its window sidecar by path.  ``include`` adds bare manifest
    files — e.g. a committed CI reference — as extra rows; a
    ``<path>.windows.json`` sidecar rides along when present
    (``reference.json`` pairs with ``reference.windows.json``).  An
    included row's id is its manifest's content address, the name the
    store gives that run, so a run already in the frame is not added
    twice.
    """
    rows = []
    for entry, payload in store.runs(fingerprint):
        windows = None
        if entry["windows"]:
            windows = store.load_windows(store.root / entry["path"])
        rows.append(_row_from_payload(payload, run_id=entry["run_id"], windows=windows))
    seen = {row.run_id for row in rows}
    for ref in include:
        path = Path(ref)
        require(path.is_file(), f"included manifest {path} does not exist")
        payload = store.load_payload(str(path))
        row = _row_from_payload(payload, windows=store.load_windows(str(path)))
        if row.run_id not in seen:
            seen.add(row.run_id)
            rows.append(row)
    return QueryFrame(rows).filter(fingerprint=fingerprint, limit=limit)


@dataclass
class QueryResult:
    """One query's rows, per-target aggregates and provenance digest."""

    targets: tuple[str, ...]
    agg: str | None
    rows: list[dict]
    aggregates: dict[str, float | None]
    frame_digest: str
    #: The ``--fingerprint`` prefix the rows were filtered by, if any.
    fingerprint: str | None = None

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
            if self.fingerprint is not None:
                return f"query: no stored run matches fingerprint {self.fingerprint!r}"
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
        fingerprint=fingerprint,
    )
