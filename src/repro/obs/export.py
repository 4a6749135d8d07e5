"""Exporters: one telemetry model, many consumer formats.

The pipeline records everything once — metrics snapshots, span trees,
event logs — and this module turns those canonical forms into what
external tooling expects:

* :func:`openmetrics_text` — the OpenMetrics text exposition of a
  metrics snapshot (``repro_`` prefix, counters as ``_total`` samples,
  distribution sketches as ``summary`` families with quantile samples,
  the mandatory ``# EOF`` terminator), for scrapers, textfile
  collectors and pushgateways alike.  Label values are escaped per the
  exposition grammar (backslash, quote, newline).  No catalogued
  metric name declares a unit, so the exposition carries no ``# UNIT``
  lines, and a Prometheus text scraper reads it unchanged up to the
  ``# EOF`` line.  It is the one sample exposition.
* Span-tree views reuse :mod:`repro.obs.profile` on the manifest's
  span tree: ``chrome`` is :func:`~repro.obs.profile.chrome_trace`
  trace-event JSON (chrome://tracing, Perfetto), ``flame`` the
  :func:`~repro.obs.profile.flame_view` text view.
  :func:`export_payload` dispatches every format.

Inputs are duck-typed payload dicts: either a bare metrics snapshot
(:meth:`~repro.obs.metrics.MetricsSnapshot.as_dict` form) or a full run
manifest (whose ``metrics``/``span_tree`` sections are used), so the
CLI can feed it a metrics JSON file, a manifest file, or a stored run
id interchangeably.
"""

from __future__ import annotations

import json
import re
from typing import Mapping

from repro.obs.metrics import parse_key
from repro.obs.sketch import sketch_quantile_from_payload
from repro.util.validation import require

#: Formats :func:`export_payload` understands.
EXPORT_FORMATS = ("openmetrics", "chrome", "flame")

#: Prefix of every exported metric family name.
EXPOSITION_PREFIX = "repro_"

#: Quantiles a streaming sketch exports as summary samples.
SKETCH_EXPORT_QUANTILES = (0.5, 0.9, 0.99)


def metrics_section(payload: Mapping) -> dict:
    """The metrics snapshot inside ``payload``.

    A payload with a ``metrics`` key is a manifest; anything else is a
    bare snapshot, whichever sections it happens to carry.
    """
    return dict(payload["metrics"] if "metrics" in payload else payload)


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
    """A valid exposition metric name: dots to underscores, prefixed."""
    return EXPOSITION_PREFIX + re.sub(r"[^a-zA-Z0-9_]", "_", name)


def _escape_label_value(value: str) -> str:
    """Escape a label value per the exposition-format grammar.

    Backslash, double quote and newline are the three characters the
    OpenMetrics text format requires escaping inside quoted
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


def openmetrics_text(payload: Mapping) -> str:
    """OpenMetrics text exposition of a metrics snapshot or manifest.

    Counters become ``<name>_total`` samples, sketches a ``summary``
    family of quantile samples plus ``_sum`` / ``_count``; labels carry
    over from the rendered ``name{k=v}`` keys.  Output is
    deterministically ordered (sorted by metric key) and ends with the
    mandatory ``# EOF`` terminator that lets a scraper tell a complete
    exposition from a truncated one.
    """
    metrics = metrics_section(payload)
    lines: list[str] = []
    for key in sorted(metrics.get("counters", {})):
        name, labels = parse_key(key)
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} counter")
        lines.append(
            f"{prom}_total{_prom_labels(labels)} "
            f"{_format_value(metrics['counters'][key])}"
        )
    for key in sorted(metrics.get("gauges", {})):
        name, labels = parse_key(key)
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(
            f"{prom}{_prom_labels(labels)} {_format_value(metrics['gauges'][key])}"
        )
    for key in sorted(metrics.get("sketches", {})):
        name, labels = parse_key(key)
        prom = _prom_name(name)
        sketch = metrics["sketches"][key]
        lines.append(f"# TYPE {prom} summary")
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
    series = window_series_section(payload)
    if series:
        prom = EXPOSITION_PREFIX + "window_series"
        lines.append(f"# TYPE {prom} gauge")
        for name in sorted(series):
            for window, value in enumerate(series[name]):
                labels = {"series": name, "window": str(window)}
                lines.append(f"{prom}{_prom_labels(labels)} {_format_value(value)}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def export_payload(payload: Mapping, fmt: str) -> str:
    """Render ``payload`` in one of :data:`EXPORT_FORMATS`."""
    require(fmt in EXPORT_FORMATS, f"unknown export format {fmt!r}")
    if fmt == "openmetrics":
        return openmetrics_text(payload)
    tree = span_tree_section(payload)
    require(
        bool(tree),
        f"{fmt} export needs a manifest with a span tree "
        "(bare metrics snapshots carry none)",
    )
    # Deferred import: profile pulls in the resource probing helpers the
    # OpenMetrics exporter never needs.
    from repro.obs.profile import chrome_trace, flame_view

    if fmt == "flame":
        return flame_view(tree) + "\n"
    return json.dumps(chrome_trace(tree), sort_keys=True, indent=2) + "\n"
