"""Exporters: one telemetry model, many consumer formats.

The pipeline records everything once — metrics snapshots, span trees,
event logs — and this module turns those canonical forms into what
external tooling expects:

* :func:`prometheus_text` — the Prometheus text exposition format of a
  metrics snapshot (``repro_`` prefix, counters as ``_total``,
  distribution sketches as ``summary`` families with quantile samples,
  watermarks as gauges), ready for a textfile collector or pushgateway.
  Label values are escaped per the exposition grammar (backslash,
  quote, newline).
* :func:`openmetrics_text` — the OpenMetrics text format: the same
  family rendering with the spec's hard requirements made explicit
  (``_total`` sample suffix on counters, the mandatory ``# EOF``
  terminator), for scrapers that negotiate
  ``application/openmetrics-text``.
* :func:`jsonl_samples` / :func:`jsonl_text` — one JSON object per
  sample, the lingua franca of log shippers.
* Chrome traces reuse :func:`repro.obs.profile.chrome_trace` on the
  manifest's span tree; :func:`export_payload` dispatches all three.

Inputs are duck-typed payload dicts: either a bare metrics snapshot
(:meth:`~repro.obs.metrics.MetricsSnapshot.as_dict` form) or a full run
manifest (whose ``metrics``/``span_tree`` sections are used), so the
CLI can feed it a metrics JSON file, a manifest file, or a stored run
id interchangeably.  Snapshots of a legacy schema are upgraded first
(:func:`~repro.obs.metrics.upgrade_snapshot`).
"""

from __future__ import annotations

import json
import re
from typing import Iterator, Mapping

from repro.obs.metrics import parse_key, upgrade_snapshot
from repro.obs.sketch import sketch_quantile_from_payload
from repro.util.validation import require

#: Formats :func:`export_payload` understands.
EXPORT_FORMATS = ("prometheus", "openmetrics", "jsonl", "chrome")

#: Prefix of every exported Prometheus metric name.
PROMETHEUS_PREFIX = "repro_"

#: Quantiles a streaming sketch exports as summary samples.
SKETCH_EXPORT_QUANTILES = (0.5, 0.9, 0.99)


def metrics_section(payload: Mapping) -> dict:
    """The metrics snapshot inside ``payload``, in the current schema.

    A payload with a ``metrics`` key is a manifest; anything else is a
    bare snapshot, whichever sections it happens to carry.
    """
    return upgrade_snapshot(payload["metrics"] if "metrics" in payload else payload)


def span_tree_section(payload: Mapping) -> dict:
    """The span tree inside ``payload`` (empty for bare snapshots)."""
    return dict(payload.get("span_tree", {}))


def window_series_section(payload: Mapping) -> dict:
    """Window series attached to ``payload`` (empty when absent).

    The CLI attaches a run's window-report sidecar under ``windows``
    before exporting, so per-window landscape series ride along as
    ``window_series{series=...,window=...}`` gauge samples.
    """
    return dict(dict(payload.get("windows", {})).get("series", {}))


def _prom_name(name: str) -> str:
    """A valid Prometheus metric name: dots to underscores, prefixed."""
    return PROMETHEUS_PREFIX + re.sub(r"[^a-zA-Z0-9_]", "_", name)


def _escape_label_value(value: str) -> str:
    """Escape a label value per the exposition-format grammar.

    Backslash, double quote and newline are the three characters the
    Prometheus/OpenMetrics text format requires escaping inside quoted
    label values; anything else passes through verbatim.
    """
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _prom_labels(labels: Mapping[str, str], extra: str = "") -> str:
    parts = [
        f'{key}="{_escape_label_value(labels[key])}"' for key in sorted(labels)
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _format_value(value: float) -> str:
    as_float = float(value)
    if as_float == int(as_float) and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


#: Units derivable from a catalogued metric name, suffix -> unit.  The
#: OpenMetrics spec ties ``# UNIT`` to the metric name's own suffix
#: (``..._seconds`` may only declare ``seconds``), so the map is keyed
#: by name ending rather than by a separate registry.
_UNIT_SUFFIXES = (("seconds", "seconds"), ("bytes", "bytes"))


def _metric_unit(name: str) -> str | None:
    """The unit a catalogued metric name self-declares, if any."""
    from repro.obs.validate import METRIC_CATALOGUE

    if name not in METRIC_CATALOGUE:
        return None
    tail = name.rsplit(".", 1)[-1].rsplit("_", 1)[-1]
    for suffix, unit in _UNIT_SUFFIXES:
        if tail == suffix:
            return unit
    return None


def _family_header(name: str, kind: str, units: bool) -> list[str]:
    """``# TYPE`` (and, in OpenMetrics mode, ``# UNIT``) family lines."""
    prom = _prom_name(name)
    lines = [f"# TYPE {prom} {kind}"]
    if units:
        unit = _metric_unit(name)
        if unit is not None:
            lines.append(f"# UNIT {prom} {unit}")
    return lines


def _exposition_lines(payload: Mapping, *, units: bool) -> list[str]:
    """The shared family rendering behind both text expositions.

    ``units`` turns on the OpenMetrics ``# UNIT`` metadata for
    catalogued metrics whose names self-declare a unit (``*_seconds``,
    ``*_bytes``); Prometheus has no UNIT line, so its exposition passes
    ``False``.
    """
    metrics = metrics_section(payload)
    lines: list[str] = []
    for key in sorted(metrics.get("counters", {})):
        name, labels = parse_key(key)
        prom = _prom_name(name) + "_total"
        lines.extend(_family_header(name, "counter", units))
        lines.append(
            f"{prom}{_prom_labels(labels)} "
            f"{_format_value(metrics['counters'][key])}"
        )
    for key in sorted(metrics.get("gauges", {})):
        name, labels = parse_key(key)
        prom = _prom_name(name)
        lines.extend(_family_header(name, "gauge", units))
        lines.append(
            f"{prom}{_prom_labels(labels)} {_format_value(metrics['gauges'][key])}"
        )
    for key in sorted(metrics.get("sketches", {})):
        name, labels = parse_key(key)
        prom = _prom_name(name)
        sketch = metrics["sketches"][key]
        lines.extend(_family_header(name, "summary", units))
        for q in SKETCH_EXPORT_QUANTILES:
            estimate = sketch_quantile_from_payload(sketch, q)
            if estimate is None:
                continue
            q_label = 'quantile="%s"' % repr(float(q))
            lines.append(
                f"{prom}{_prom_labels(labels, q_label)} {repr(float(estimate))}"
            )
        lines.append(
            f"{prom}_sum{_prom_labels(labels)} "
            f"{repr(float(sketch.get('sum', 0.0)))}"
        )
        lines.append(
            f"{prom}_count{_prom_labels(labels)} {int(sketch.get('count', 0))}"
        )
    for key in sorted(metrics.get("watermarks", {})):
        name, labels = parse_key(key)
        prom = _prom_name(name)
        lines.extend(_family_header(name, "gauge", units))
        lines.append(
            f"{prom}{_prom_labels(labels)} "
            f"{_format_value(metrics['watermarks'][key])}"
        )
    series = window_series_section(payload)
    if series:
        prom = PROMETHEUS_PREFIX + "window_series"
        lines.append(f"# TYPE {prom} gauge")
        for name in sorted(series):
            for window, value in enumerate(series[name]):
                labels = {"series": name, "window": str(window)}
                lines.append(f"{prom}{_prom_labels(labels)} {_format_value(value)}")
    return lines


def prometheus_text(payload: Mapping) -> str:
    """Prometheus text exposition of a metrics snapshot or manifest.

    Counters become ``<name>_total``, sketches a ``summary`` family of
    quantile samples plus ``_sum`` / ``_count``; labels carry over from
    the rendered ``name{k=v}`` keys.  Output is deterministically
    ordered (sorted by metric key).
    """
    return "\n".join(_exposition_lines(payload, units=False)) + "\n"


def openmetrics_text(payload: Mapping) -> str:
    """OpenMetrics text exposition of a metrics snapshot or manifest.

    The family rendering is shared with :func:`prometheus_text` — the
    obs layer already emits counters as ``_total`` samples, which
    OpenMetrics *requires* where Prometheus merely tolerates.  The spec
    adds two pieces of metadata on top: ``# UNIT`` lines for catalogued
    metrics whose names self-declare a unit (``*_seconds``/``*_bytes``),
    and the mandatory ``# EOF`` terminator — always the last line — that
    lets a scraper distinguish a complete exposition from a truncated
    one.
    """
    return "\n".join(_exposition_lines(payload, units=True)) + "\n# EOF\n"


def jsonl_samples(payload: Mapping) -> Iterator[dict]:
    """One flat dict per metric sample, in deterministic order."""
    metrics = metrics_section(payload)
    for section, sample_type in (("counters", "counter"), ("gauges", "gauge")):
        for key in sorted(metrics.get(section, {})):
            name, labels = parse_key(key)
            yield {
                "type": sample_type,
                "name": name,
                "labels": labels,
                "value": metrics[section][key],
            }
    for key in sorted(metrics.get("sketches", {})):
        name, labels = parse_key(key)
        sketch = metrics["sketches"][key]
        yield {
            "type": "sketch",
            "name": name,
            "labels": labels,
            "count": int(sketch.get("count", 0)),
            "sum": float(sketch.get("sum", 0.0)),
            "quantiles": {
                repr(float(q)): sketch_quantile_from_payload(sketch, q)
                for q in SKETCH_EXPORT_QUANTILES
            },
        }
    for key in sorted(metrics.get("watermarks", {})):
        name, labels = parse_key(key)
        yield {
            "type": "watermark",
            "name": name,
            "labels": labels,
            "value": metrics["watermarks"][key],
        }
    series = window_series_section(payload)
    for name in sorted(series):
        for window, value in enumerate(series[name]):
            yield {
                "type": "gauge",
                "name": "window.series",
                "labels": {"series": name, "window": str(window)},
                "value": value,
            }


def jsonl_text(payload: Mapping) -> str:
    """The :func:`jsonl_samples` stream rendered as JSON lines."""
    return "".join(
        json.dumps(sample, sort_keys=True, separators=(",", ":")) + "\n"
        for sample in jsonl_samples(payload)
    )


def export_payload(payload: Mapping, fmt: str) -> str:
    """Render ``payload`` in one of :data:`EXPORT_FORMATS`."""
    require(fmt in EXPORT_FORMATS, f"unknown export format {fmt!r}")
    if fmt == "prometheus":
        return prometheus_text(payload)
    if fmt == "openmetrics":
        return openmetrics_text(payload)
    if fmt == "jsonl":
        return jsonl_text(payload)
    tree = span_tree_section(payload)
    require(
        bool(tree),
        "chrome export needs a manifest with a span tree "
        "(bare metrics snapshots carry none)",
    )
    # Deferred import: profile pulls in resource/gc probing helpers the
    # text exporters never need.
    from repro.obs.profile import chrome_trace

    return json.dumps(chrome_trace(tree), sort_keys=True, indent=2) + "\n"
