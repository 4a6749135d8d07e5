"""Per-window semantic telemetry: the landscape folded onto a time axis.

The rest of the obs layer watches the pipeline's *mechanics* — stage
timings, cache hits, span CPU and RSS.  This module watches the
*landscape semantics* those mechanics produce, the way the paper reads
its 17-month SGNET window: attack events, newly collected binaries and
newly discovered E/P/M patterns per time window, how many clusters each
observation perspective keeps active, how much the cluster population
churns, and — the paper's core signal — how well the static (M) and
behavioural (B) perspectives still *agree* window by window
(:class:`~repro.analysis.crossview.CrossView` counts plus a pairwise-F1
agreement score from :mod:`repro.analysis.quality`).

A :class:`WindowReport` is a pure function of the run's artifacts
(dataset, EPM clustering, B-clustering): no wall-clock field ever
enters it, so two executions of one scenario produce
*byte-identical* reports — enforced by :meth:`WindowReport.digest`
checks in the determinism tests.  Reports persist next to the run
manifest in the longitudinal store
(``results/runs/<fingerprint>/<run_id>.windows.json``) and feed the
SLO/anomaly engine (:mod:`repro.obs.health`) and the terminal dashboard
(:mod:`repro.obs.dashboard`).

Like :func:`repro.obs.manifest.build_manifest`, the builder only reads
public run artifacts and defers its two upward imports (the cross-view
join and the pairwise-F1 scorer from :mod:`repro.analysis`), so the obs
layer still imports standalone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from repro.util.canonical import canonical_digest
from repro.util.validation import require

#: Window-report schema version; bump on incompatible layout changes.
WINDOWS_SCHEMA = 1

#: Default window width (weeks folded into one series point).
DEFAULT_WINDOW_WEEKS = 4

#: Every series a report carries, in render order.  ``agreement`` is the
#: per-window pairwise-F1 of the B-clustering against the M-clustering
#: (restricted to samples active in the window); everything else is a
#: count.  Mirrored in ``docs/ARCHITECTURE.md``'s window-series table.
WINDOW_SERIES = (
    "events",
    "sensor_groups",
    "new_samples",
    "new_patterns",
    "e_clusters",
    "p_clusters",
    "m_clusters",
    "b_clusters",
    "m_churn",
    "b_churn",
    "joint_samples",
    "agreement",
)


@dataclass
class WindowReport:
    """Per-window series of one run's landscape semantics."""

    fingerprint: str
    seed: int
    window_weeks: int
    n_windows: int
    #: Series name -> one value per window (``WINDOW_SERIES`` keys).
    series: dict[str, list[float]] = field(default_factory=dict)
    #: Whole-run :meth:`~repro.analysis.crossview.CrossView.summary`.
    crossview: dict[str, int] = field(default_factory=dict)
    schema: int = WINDOWS_SCHEMA

    def as_dict(self) -> dict:
        """Plain-dict form (the JSON layout), series key-sorted."""
        return {
            "schema": self.schema,
            "fingerprint": self.fingerprint,
            "seed": self.seed,
            "window_weeks": self.window_weeks,
            "n_windows": self.n_windows,
            "series": {name: list(self.series[name]) for name in sorted(self.series)},
            "crossview": dict(sorted(self.crossview.items())),
        }

    def to_json(self) -> str:
        """Deterministic JSON encoding (sorted keys)."""
        return json.dumps(self.as_dict(), sort_keys=True, indent=2)

    def digest(self) -> str:
        """Canonical content address of the report.

        A pure function of the run's artifacts: two executions of one
        ``(seed, config)`` must agree on it byte-for-byte — the windowed
        cousin of the manifest's artifact digests.
        """
        return canonical_digest(self.as_dict())

    def window_row(self, window: int) -> dict[str, float]:
        """Every series value of one window (``window.rollup`` fields)."""
        require(0 <= window < self.n_windows, f"window {window} out of range")
        return {name: self.series[name][window] for name in sorted(self.series)}

    def write(self, path: str | Path) -> Path:
        """Persist the report as JSON; returns the path written."""
        path = Path(path)
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path

    @classmethod
    def from_dict(cls, payload: Mapping) -> "WindowReport":
        """Rebuild a report from its :meth:`as_dict` form."""
        require(
            payload.get("schema") == WINDOWS_SCHEMA,
            f"unsupported window report schema {payload.get('schema')!r}",
        )
        series = {
            str(name): [float(v) for v in values]
            for name, values in dict(payload.get("series", {})).items()
        }
        return cls(
            fingerprint=str(payload.get("fingerprint", "")),
            seed=int(payload.get("seed", 0)),
            window_weeks=int(payload["window_weeks"]),
            n_windows=int(payload["n_windows"]),
            series=series,
            crossview={
                str(k): int(v)
                for k, v in dict(payload.get("crossview", {})).items()
            },
        )

    @classmethod
    def load(cls, path: str | Path) -> "WindowReport":
        """Read a report back from :meth:`write` output."""
        return cls.from_dict(
            json.loads(Path(path).read_text(encoding="utf-8"))
        )


def build_window_report(
    dataset,
    epm,
    bclusters,
    grid,
    *,
    seed: int,
    fingerprint: str,
    window_weeks: int = DEFAULT_WINDOW_WEEKS,
) -> WindowReport:
    """Fold a run's artifacts into per-window series.

    One pass over the events and one over the samples; everything else
    is set arithmetic over cluster ids.  ``fingerprint`` is supplied by
    the caller (the scenario layer owns the fingerprint function), like
    :func:`repro.obs.manifest.build_manifest`.
    """
    require(window_weeks >= 1, "window_weeks must be >= 1")
    # Deferred upward imports (see module docstring): the cross-view
    # join and the pair-counting agreement score live in the analysis
    # layer, which the obs package must not import at module scope.
    from repro.analysis.crossview import CrossView
    from repro.analysis.quality import pairwise_f1
    from repro.util.timegrid import WEEK_SECONDS

    n_windows = -(-grid.n_weeks // window_weeks)
    counts = {
        name: [0] * n_windows
        for name in WINDOW_SERIES
        if name not in ("agreement",)
    }
    active: dict[str, list[set]] = {
        name: [set() for _ in range(n_windows)]
        for name in (
            "sensor_groups",
            "e_clusters",
            "p_clusters",
            "m_clusters",
            "b_clusters",
        )
    }
    crossview = CrossView(dataset, epm, bclusters)
    m_of_sample = crossview.m_of_sample
    b_of_sample = crossview.b_of_sample
    joint = set(crossview.joint_samples)
    joint_active: list[set] = [set() for _ in range(n_windows)]
    seen_patterns: set[tuple[int, int, int]] = set()
    seen_m: set[int] = set()
    seen_b: set[int] = set()

    # The event pass runs once per event of the full dataset, so the
    # per-event telemetry cost is what the windows-overhead bench gates;
    # hoist the three assignment maps (skipping the coordinates() call
    # stack) and fold the week/window arithmetic into one division.
    e_of = epm.epsilon.assignment.get
    p_of = epm.pi.assignment.get
    m_of = epm.mu.assignment.get
    grid_start = grid.start
    window_seconds = WEEK_SECONDS * window_weeks

    for event in dataset.events:
        window = (event.timestamp - grid_start) // window_seconds
        counts["events"][window] += 1
        active["sensor_groups"][window].add(int(event.sensor) >> 8)
        event_id = event.event_id
        e = e_of(event_id)
        p = p_of(event_id)
        m = m_of(event_id)
        if e is not None:
            active["e_clusters"][window].add(e)
        if p is not None:
            active["p_clusters"][window].add(p)
        if m is not None:
            active["m_clusters"][window].add(m)
        if e is not None and p is not None and m is not None:
            pattern = (e, p, m)
            if pattern not in seen_patterns:
                seen_patterns.add(pattern)
                counts["new_patterns"][window] += 1
        if event.malware is None:
            continue
        md5 = event.malware.md5
        b = b_of_sample.get(md5)
        if b is not None:
            active["b_clusters"][window].add(b)
        if md5 in joint:
            joint_active[window].add(md5)

    for record in dataset.samples.values():
        counts["new_samples"][(record.first_seen - grid_start) // window_seconds] += 1

    agreement: list[float] = []
    for window in range(n_windows):
        for name, sets in active.items():
            counts[name][window] = len(sets[window])
        members = joint_active[window]
        counts["joint_samples"][window] = len(members)
        # Churn: cluster ids whose first active window is this one —
        # the per-window face of the landscape's population turnover.
        fresh_m = active["m_clusters"][window] - seen_m
        fresh_b = active["b_clusters"][window] - seen_b
        seen_m |= active["m_clusters"][window]
        seen_b |= active["b_clusters"][window]
        counts["m_churn"][window] = len(fresh_m)
        counts["b_churn"][window] = len(fresh_b)
        if members:
            score = pairwise_f1(
                {md5: b_of_sample[md5] for md5 in members},
                {md5: m_of_sample[md5] for md5 in members},
            )
        else:
            score = 1.0  # vacuous agreement: nothing to disagree about
        agreement.append(round(score, 6))

    series: dict[str, list[float]] = {
        name: [float(v) for v in counts[name]]
        for name in WINDOW_SERIES
        if name != "agreement"
    }
    series["agreement"] = agreement
    return WindowReport(
        fingerprint=fingerprint,
        seed=seed,
        window_weeks=window_weeks,
        n_windows=n_windows,
        series=series,
        crossview=crossview.summary(),
    )
