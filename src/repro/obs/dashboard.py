"""The terminal dashboard: window series as sparklines.

``repro obs dashboard`` turns a run's :class:`~repro.obs.windows.WindowReport`
into a compact terminal view — one sparkline row per window series
(attack volume, new samples/patterns, per-perspective cluster counts,
churn, cross-view agreement), the whole-run cross-view summary, and the
run's health findings when a manifest is on hand.  The static render is
a pure function of its payloads, so it doubles as the CI artifact
snapshot.

With ``--follow`` the dashboard rides the same machinery as
``repro obs tail``: it watches an event log for ``window.rollup``
events (one per window, emitted by the scenario layer as series are
folded) and redraws a frame per rollup, so a long run's landscape shape
builds up live in the terminal.
"""

from __future__ import annotations

from typing import IO, Callable, Mapping

from repro.obs.events import PipelineEvent, iter_events
from repro.obs.windows import WINDOW_SERIES
from repro.util.validation import require

#: Eight-level block ramp used for sparkline cells.
SPARK_CHARS = "▁▂▃▄▅▆▇█"

#: Widest series name (layout column for the render).
_NAME_WIDTH = max(len(name) for name in WINDOW_SERIES)


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


def render_dashboard(windows: Mapping, health: Mapping | None = None) -> str:
    """The full static dashboard of a window report payload.

    ``windows`` is a :meth:`~repro.obs.windows.WindowReport.as_dict`
    payload; ``health`` is an optional
    :meth:`~repro.obs.health.Report.as_dict` payload appended as
    a findings section.  Deterministic: sorted sections, no wall-clock.
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
    return "\n".join(lines) + "\n"


class DashboardAccumulator:
    """Folds ``window.rollup`` events back into a window-report payload.

    The scenario layer emits one ``window.rollup`` event per window with
    every series value as a field; feeding those events here rebuilds
    the ``series`` mapping incrementally, which is what lets ``--follow``
    redraw the dashboard as windows arrive without waiting for the
    ``.windows.json`` sidecar to exist.
    """

    def __init__(self) -> None:
        self.meta: dict = {}
        self.series: dict[str, list[float]] = {}
        self._windows_seen = 0

    def feed(self, event: PipelineEvent) -> bool:
        """Ingest one event; True when the frame should redraw."""
        if event.kind != "window.rollup":
            return False
        fields = dict(event.fields)
        for key in ("fingerprint", "seed", "window_weeks", "n_windows"):
            if key in fields:
                self.meta[key] = fields.pop(key)
        fields.pop("window", None)
        for name, value in fields.items():
            self.series.setdefault(str(name), []).append(float(value))
        self._windows_seen += 1
        return True

    def payload(self) -> dict:
        """The accumulated payload in window-report layout."""
        return {
            **self.meta,
            "n_windows": self._windows_seen,
            "series": {name: list(self.series[name]) for name in sorted(self.series)},
        }


def follow_dashboard(
    path,
    stream: IO[str],
    *,
    poll_seconds: float = 0.2,
    stop: Callable[[], bool] | None = None,
) -> int:
    """Tail ``path`` and redraw the dashboard per ``window.rollup``.

    Frames are separated by a form-feed-free blank line (terminal
    multiplexer friendly, artifact-file friendly).  Returns the number
    of frames drawn; like ``repro obs tail``, the CLI wires ``stop`` /
    KeyboardInterrupt for interactive exit.
    """
    accumulator = DashboardAccumulator()
    frames = 0
    for event in iter_events(path, follow=True, poll_seconds=poll_seconds, stop=stop):
        if accumulator.feed(event):
            frames += 1
            stream.write(render_dashboard(accumulator.payload()))
            stream.write("\n")
            stream.flush()
    return frames
