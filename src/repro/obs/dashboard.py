"""``repro obs dashboard``: the one live view of a run.

The dashboard has two sections.  The *landscape* section renders a
run's :class:`~repro.obs.windows.WindowReport` as one sparkline row per
window series (attack volume, new samples/patterns, per-perspective
cluster counts, churn, cross-view agreement), the whole-run cross-view
summary, and the run's health findings when a manifest is on hand.  The
*machine* section shows the pipeline's machinery: event throughput,
stage progress and the count of each event kind.

Given a run id, manifest or window report, the dashboard renders the
landscape section from the stored report.  Given an event log (the file
``--events`` writes), :class:`DashboardAccumulator` folds the stream
into both sections — no manifest required, so it works mid-run on a
partially written log — and ``--follow`` rides :func:`iter_events`'s
tail mode (which survives the log being truncated by a new run),
redrawing a frame per work-completion event.

Every render is a pure function of its payloads (no wall-clock reads;
rates come from the events' own monotonic stamps), so a render of a
finished run doubles as a deterministic CI artifact.
"""

from __future__ import annotations

from collections import deque
from typing import IO, Callable, Iterable, Mapping

from repro.obs.events import PipelineEvent, iter_events
from repro.obs.windows import WINDOW_SERIES
from repro.util.validation import require

#: Eight-level block ramp used for sparkline cells.
SPARK_CHARS = "▁▂▃▄▅▆▇█"

#: Widest series name (layout column for the render).
_NAME_WIDTH = max(len(name) for name in WINDOW_SERIES)

#: Trailing samples kept per machine sparkline (bounds accumulator memory).
MACHINE_WINDOW = 48

#: Event kinds that trigger a redraw in follow mode.  High-frequency
#: bookkeeping kinds (cache.*) update the counters silently; redrawing
#: only on work-completion events keeps frame volume proportional to
#: stages and windows, not to cache traffic.
REDRAW_KINDS = frozenset({"stage.finish", "window.rollup", "run.finish"})


def sparkline(values: list[float]) -> str:
    """One block-character cell per value, scaled to the series range.

    A flat series renders as all-low cells (there is no shape to show);
    an empty one renders empty.
    """
    if not values:
        return ""
    lo = min(values)
    hi = max(values)
    span = hi - lo
    if span <= 0:
        return SPARK_CHARS[0] * len(values)
    top = len(SPARK_CHARS) - 1
    return "".join(
        SPARK_CHARS[int((value - lo) / span * top)] for value in values
    )


def _series_row(name: str, values: list[float]) -> str:
    last = values[-1] if values else 0.0
    hi = max(values) if values else 0.0
    return (
        f"  {name:<{_NAME_WIDTH}}  {sparkline(values):<{max(len(values), 1)}}"
        f"  last={last:g} max={hi:g}"
    )


def render_machine(state: Mapping) -> str:
    """The machine section for one :meth:`DashboardAccumulator.snapshot`."""
    meta = state["meta"]
    status = "finished" if state["finished"] else (
        f"stage {state['current_stage']}" if state["current_stage"] else "running"
    )
    lines = [
        "machine"
        f" · seed {meta.get('seed', '-')}"
        f" · {meta.get('weeks', '?')}w x{meta.get('scale', '?')}"
        f" · {status}",
        "",
        f"  events   n={state['n_events']} rate={state['rate']:g}/s"
        f"  gap {sparkline(state['gaps'])}",
        f"  stages   done={state['stages_done']}",
    ]
    counts = state["kind_counts"]
    if counts:
        lines.append(
            "  kinds    " + " ".join(f"{kind}={counts[kind]}" for kind in sorted(counts))
        )
    return "\n".join(lines) + "\n"


def render_dashboard(
    windows: Mapping,
    health: Mapping | None = None,
    machine: Mapping | None = None,
) -> str:
    """The dashboard: a landscape section, then an optional machine section.

    ``windows`` is a :meth:`~repro.obs.windows.WindowReport.as_dict`
    payload (or :meth:`DashboardAccumulator.payload`); ``health`` is an
    optional :meth:`~repro.obs.health.Report.as_dict` payload appended
    as a findings section; ``machine`` is an optional
    :meth:`DashboardAccumulator.snapshot` rendered by
    :func:`render_machine`.  Deterministic: sorted sections, no
    wall-clock.
    """
    require("series" in windows, "payload has no window series")
    series = windows["series"]
    lines = [
        "landscape dashboard"
        f" · fingerprint {str(windows.get('fingerprint', ''))[:16] or '-'}"
        f" · seed {windows.get('seed', '-')}"
        f" · {windows.get('n_windows', len(next(iter(series.values()), [])))}"
        f" windows x {windows.get('window_weeks', '?')}w",
        "",
    ]
    for name in WINDOW_SERIES:
        if name in series:
            lines.append(_series_row(name, [float(v) for v in series[name]]))
    for name in sorted(series):
        if name not in WINDOW_SERIES:
            lines.append(_series_row(name, [float(v) for v in series[name]]))
    crossview = windows.get("crossview", {})
    if crossview:
        lines.append("")
        lines.append(
            "  crossview: "
            + " ".join(f"{key}={crossview[key]}" for key in sorted(crossview))
        )
    if health is not None:
        summary = health.get("summary", {})
        lines.append("")
        lines.append(
            "  health: "
            + (
                " ".join(
                    f"{severity}={summary[severity]}"
                    for severity in sorted(summary)
                )
                or "clean"
            )
        )
        for finding in health.get("findings", []):
            where = (
                f" [window {finding['window']}]"
                if finding.get("window") is not None
                else ""
            )
            lines.append(
                f"    {str(finding['severity']).upper():<8} "
                f"{finding['rule']}{where} = {float(finding['value']):g}"
            )
    text = "\n".join(lines) + "\n"
    if machine is not None:
        text += "\n" + render_machine(machine)
    return text


class DashboardAccumulator:
    """Folds a run's event stream into both dashboard sections.

    ``window.rollup`` events (one per window, every series value as a
    field) rebuild the window report's ``series`` mapping, which is what
    lets ``--follow`` redraw the landscape as windows arrive without
    waiting for the ``.windows.json`` sidecar.  Every event feeds the
    machine state: counters plus a bounded deque (O(:data:`MACHINE_WINDOW`))
    of the most recent event inter-arrival gaps.  Feeding the same events
    always produces the same :meth:`payload` and :meth:`snapshot`.
    """

    def __init__(self, window: int = MACHINE_WINDOW) -> None:
        self.meta: dict = {}
        self.window_meta: dict = {}
        self.series: dict[str, list[float]] = {}
        self.windows_seen = 0
        self.kind_counts: dict[str, int] = {}
        self.n_events = 0
        self.t_first: float | None = None
        self.t_last: float | None = None
        self.gaps: deque[float] = deque(maxlen=window)
        self.current_stage: str | None = None
        self.stages_done = 0
        self.finished = False

    def feed(self, event: PipelineEvent) -> bool:
        """Ingest one event; True when a follow frame should redraw."""
        self.n_events += 1
        self.kind_counts[event.kind] = self.kind_counts.get(event.kind, 0) + 1
        t = float(event.t)
        if self.t_first is None:
            self.t_first = t
        elif self.t_last is not None and t >= self.t_last:
            self.gaps.append(t - self.t_last)
        self.t_last = t
        fields = event.fields
        if event.kind == "window.rollup":
            fields = dict(fields)
            for key in ("fingerprint", "seed", "window_weeks", "n_windows"):
                if key in fields:
                    self.window_meta[key] = fields.pop(key)
            fields.pop("window", None)
            for name, value in fields.items():
                self.series.setdefault(str(name), []).append(float(value))
            self.windows_seen += 1
        elif event.kind == "run.start":
            for key in ("seed", "weeks", "scale"):
                if key in fields:
                    self.meta[key] = fields[key]
        elif event.kind == "stage.start":
            self.current_stage = str(fields.get("stage", "?"))
        elif event.kind == "stage.finish":
            self.stages_done += 1
            if self.current_stage == str(fields.get("stage")):
                self.current_stage = None
        elif event.kind == "run.finish":
            self.finished = True
        return event.kind in REDRAW_KINDS

    def payload(self) -> dict:
        """The accumulated window series in window-report layout."""
        return {
            **self.window_meta,
            "n_windows": self.windows_seen,
            "series": {name: list(self.series[name]) for name in sorted(self.series)},
        }

    def snapshot(self) -> dict:
        """Plain-dict form of the machine state (:func:`render_machine` input).

        ``rate`` is the whole-stream event throughput (events per second
        of event-stamp time).
        """
        elapsed = (self.t_last or 0.0) - (self.t_first or 0.0)
        return {
            "meta": dict(self.meta),
            "n_events": self.n_events,
            "rate": (self.n_events - 1) / elapsed if elapsed > 0 else 0.0,
            "gaps": list(self.gaps),
            "current_stage": self.current_stage,
            "stages_done": self.stages_done,
            "kind_counts": dict(self.kind_counts),
            "finished": self.finished,
        }

    def render(self) -> str:
        """Both sections of the accumulated state."""
        return render_dashboard(self.payload(), machine=self.snapshot())


def dashboard_from_events(events: Iterable[PipelineEvent]) -> str:
    """Static render: fold a whole event iterable, return one frame."""
    accumulator = DashboardAccumulator()
    for event in events:
        accumulator.feed(event)
    return accumulator.render()


def follow_dashboard(
    path,
    stream: IO[str],
    *,
    poll_seconds: float = 0.2,
    stop: Callable[[], bool] | None = None,
) -> int:
    """Tail ``path`` and redraw the dashboard per :data:`REDRAW_KINDS` event.

    Frames are separated by a blank line (terminal-multiplexer and
    artifact-file friendly) and the loop inherits :func:`iter_events`'s
    truncation handling, so a log rewritten by a new run keeps feeding
    frames.  Returns the number of frames drawn; the CLI wires
    KeyboardInterrupt for interactive exit.
    """
    accumulator = DashboardAccumulator()
    frames = 0
    for event in iter_events(path, follow=True, poll_seconds=poll_seconds, stop=stop):
        if accumulator.feed(event):
            frames += 1
            stream.write(accumulator.render())
            stream.write("\n")
            stream.flush()
    return frames
