"""repro.obs - the observability layer: metrics, traces, logs, manifests.

Zero-dependency instrumentation for the pipeline, off by default and
near-free when off:

* :mod:`repro.obs.metrics` — counters/gauges/histograms in a
  :class:`MetricsRegistry`, exported as deterministic JSON snapshots;
* :mod:`repro.obs.trace` — hierarchical :class:`TraceSpan`s (the
  generalisation of the flat ``StageTimer``), with per-span attributes;
* :mod:`repro.obs.log` — structured logging under the ``repro`` logger
  namespace, console + JSON-lines formatters;
* :mod:`repro.obs.manifest` — the :class:`RunManifest` receipt of a
  scenario run (config fingerprint, span tree, metric snapshot,
  artifact digests);
* :mod:`repro.obs.validate` — the metric-name catalogue and the JSON
  validators CI runs against emitted files and stored runs;
* :mod:`repro.obs.history` — the append-only, content-addressed run
  store (``results/runs``) that turns per-run manifests into a
  longitudinal record;
* :mod:`repro.obs.diff` — cross-run manifest diffs (metric deltas,
  timing bands, digest walks naming the first diverging stage, event
  attribution) and the ``repro obs history`` drift time series;
* :mod:`repro.obs.events` — the live pipeline event stream: a
  schema-versioned, monotonically sequenced :class:`EventBus` with
  in-memory, JSON-lines-file and multiprocessing-queue transports,
  the ``repro obs tail`` replay/follow reader and the ``--progress``
  renderer;
* :mod:`repro.obs.export` — exporters of the recorded telemetry:
  Prometheus/OpenMetrics text expositions, JSON-lines samples, Chrome
  traces;
* :mod:`repro.obs.profile` — opt-in per-span CPU/RSS/GC probes plus
  span-tree exporters: Chrome trace-event JSON and a flamegraph-style
  text view;
* :mod:`repro.obs.windows` — per-window landscape telemetry: the
  :class:`WindowReport` folding a run's artifacts into time-window
  series (attack volume, new samples/patterns, cluster counts and
  churn, cross-view agreement), persisted next to the run store;
* :mod:`repro.obs.health` — the one detector/rule engine: static
  bounds, trailing-median tolerance bands, EWMA z-scores and two-sided
  Page-Hinkley changepoints, run over one run's window series
  (``repro obs health``) or over the run store's per-fingerprint run
  series (``repro obs regress``, the perf gate's detector self-test),
  with one baseline-suppression key;
* :mod:`repro.obs.dashboard` — the sparkline terminal dashboard behind
  ``repro obs dashboard`` (static render + ``--follow`` off the event
  stream);
* :mod:`repro.obs.query` — the longitudinal analytics frame: every
  stored run materialized into one columnar, digest-checked
  :class:`QueryFrame` (incrementally indexed in ``query_index.json``)
  with ``metric:``/``series:``/``golden:``/``span:`` selectors, the
  ``repro obs query`` engine and the per-stage cost-attribution join
  behind ``repro obs cost``.

Instrumented layers read the ambient registry/tracer
(:func:`repro.obs.metrics.active`,
:func:`repro.obs.trace.current_tracer`); orchestrators install real
ones per run.  ``repro.obs`` depends only on :mod:`repro.util`.
"""

from repro.obs.diff import ManifestDiff, diff_manifests, render_history
from repro.obs.events import (
    EVENT_KINDS,
    NULL_BUS,
    EventBus,
    PipelineEvent,
    active_bus,
    iter_events,
    read_events,
    use_bus,
)
from repro.obs.dashboard import render_dashboard, sparkline
from repro.obs.export import (
    export_payload,
    jsonl_text,
    openmetrics_text,
    prometheus_text,
)
from repro.obs.health import (
    HEALTH_RULES,
    REGRESS_RULES,
    Finding,
    Report,
    Rule,
    evaluate_health,
    new_findings,
    run_regression,
)
from repro.obs.history import RunStore
from repro.obs.log import configure_logging, get_logger
from repro.obs.manifest import RunManifest, build_manifest
from repro.obs.metrics import (
    LATENCY_BUCKETS,
    NULL_REGISTRY,
    SIZE_BUCKETS,
    MetricsRegistry,
    MetricsSnapshot,
)
from repro.obs.profile import chrome_trace, flame_view, write_chrome_trace
from repro.obs.query import (
    CostReport,
    QueryFrame,
    QueryIndex,
    QueryResult,
    attribute_cost,
    build_frame,
    frame_from_payloads,
    run_query,
)
from repro.obs.trace import NULL_TRACER, Tracer, TraceSpan, current_tracer, use_tracer
from repro.obs.windows import WINDOW_SERIES, WindowReport, build_window_report

# repro.obs.validate is deliberately NOT imported here: it doubles as the
# ``python -m repro.obs.validate`` CI entry point, and importing it from
# the package __init__ would make runpy warn about the double import.

__all__ = [
    "CostReport",
    "EVENT_KINDS",
    "EventBus",
    "Finding",
    "HEALTH_RULES",
    "LATENCY_BUCKETS",
    "ManifestDiff",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NULL_BUS",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "PipelineEvent",
    "QueryFrame",
    "QueryIndex",
    "QueryResult",
    "REGRESS_RULES",
    "Report",
    "RunManifest",
    "Rule",
    "RunStore",
    "SIZE_BUCKETS",
    "TraceSpan",
    "Tracer",
    "WINDOW_SERIES",
    "WindowReport",
    "active_bus",
    "attribute_cost",
    "build_frame",
    "build_manifest",
    "build_window_report",
    "chrome_trace",
    "configure_logging",
    "current_tracer",
    "diff_manifests",
    "evaluate_health",
    "export_payload",
    "flame_view",
    "frame_from_payloads",
    "get_logger",
    "iter_events",
    "jsonl_text",
    "new_findings",
    "openmetrics_text",
    "prometheus_text",
    "read_events",
    "render_dashboard",
    "render_history",
    "run_query",
    "run_regression",
    "sparkline",
    "use_bus",
    "write_chrome_trace",
]
