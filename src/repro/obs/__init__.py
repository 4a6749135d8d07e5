"""repro.obs - the observability layer: metrics, traces, logs, manifests.

Zero-dependency instrumentation for the pipeline, off by default and
near-free when off:

* :mod:`repro.obs.metrics` — counters, gauges and quantile sketches in
  a :class:`MetricsRegistry`, exported as deterministic JSON snapshots;
* :mod:`repro.obs.trace` — hierarchical :class:`TraceSpan`s with
  per-span attributes;
* :mod:`repro.obs.log` — structured logging under the ``repro`` logger
  namespace, console + JSON-lines formatters;
* :mod:`repro.obs.manifest` — the :class:`RunManifest` receipt of a
  scenario run (config fingerprint, span tree, metric snapshot,
  artifact digests); manifest schema 8 is the one layout every reader
  accepts, and an older stored run is refused, not translated;
* :mod:`repro.obs.validate` — the metric-name catalogue and the JSON
  validators CI runs against emitted files and stored runs;
* :mod:`repro.obs.history` — the append-only, content-addressed run
  store (``results/runs``) that turns per-run manifests into a
  longitudinal record; its directory tree is its only record;
* :mod:`repro.obs.diff` — the one two-run comparison behind ``repro
  obs diff``: digest walks naming the first diverging stage and event,
  metric deltas, and one per-stage table (readings, cache disposition,
  re-keyed stages, timing flags from the ``band`` detector) with the
  config delta and the cost attributed to it;
* :mod:`repro.obs.events` — the live pipeline event stream: a
  schema-versioned, monotonically sequenced :class:`EventBus` with
  in-memory and JSON-lines-file transports, the replay/follow reader
  ``repro obs dashboard`` folds and the ``--progress`` renderer;
* :mod:`repro.obs.export` — exporters of the recorded telemetry
  behind ``repro obs export``: the OpenMetrics text exposition (the one
  sample exposition), Chrome traces and the flamegraph text view;
* :mod:`repro.obs.profile` — the per-span CPU/RSS probe every tracer
  runs, plus span-tree exporters: Chrome trace-event JSON and the
  flamegraph-style text view, the one span-tree text view (``--timings``
  prints it too);
* :mod:`repro.obs.windows` — per-window landscape telemetry: the
  :class:`WindowReport` folding a run's artifacts into time-window
  series (attack volume, new samples/patterns, cluster counts and
  churn, cross-view agreement), persisted next to the run store;
* :mod:`repro.obs.health` — the one detector/rule engine: static
  bounds, trailing-median tolerance bands, EWMA z-scores and
  Page-Hinkley changepoints (one-sided for ``span:`` timings), run over one run's window series
  (``repro obs health``) or over the run store's per-fingerprint run
  series (``repro obs regress``), with one baseline-suppression key;
* :mod:`repro.obs.dashboard` — the one live view behind ``repro obs
  dashboard``: a run's landscape sparklines plus, from an event log,
  the machine state (static fold + ``--follow``);
* :mod:`repro.obs.query` — the longitudinal analytics frame: every
  stored run read from the store's tree into one columnar,
  digest-checked :class:`QueryFrame` with
  ``metric:``/``series:``/``golden:``/``span:`` selectors and the
  ``repro obs query`` engine.

Instrumented layers read the ambient registry/tracer
(:func:`repro.obs.metrics.active`,
:func:`repro.obs.trace.current_tracer`); orchestrators install real
ones per run.  ``repro.obs`` depends only on :mod:`repro.util`.
"""

from repro.obs.diff import ManifestDiff, StageRow, diff_manifests
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
from repro.obs.export import export_payload, openmetrics_text
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
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry, MetricsSnapshot
from repro.obs.profile import chrome_trace, flame_view
from repro.obs.query import (
    QueryFrame,
    QueryResult,
    build_frame,
    run_query,
)
from repro.obs.trace import NULL_TRACER, Tracer, TraceSpan, current_tracer, use_tracer
from repro.obs.windows import WINDOW_SERIES, WindowReport, build_window_report

# repro.obs.validate is deliberately NOT imported here: it doubles as the
# ``python -m repro.obs.validate`` CI entry point, and importing it from
# the package __init__ would make runpy warn about the double import.

__all__ = [
    "EVENT_KINDS",
    "EventBus",
    "Finding",
    "HEALTH_RULES",
    "ManifestDiff",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NULL_BUS",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "PipelineEvent",
    "QueryFrame",
    "QueryResult",
    "REGRESS_RULES",
    "Report",
    "RunManifest",
    "Rule",
    "RunStore",
    "StageRow",
    "TraceSpan",
    "Tracer",
    "WINDOW_SERIES",
    "WindowReport",
    "active_bus",
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
    "get_logger",
    "iter_events",
    "new_findings",
    "openmetrics_text",
    "read_events",
    "render_dashboard",
    "run_query",
    "run_regression",
    "sparkline",
    "use_bus",
]
