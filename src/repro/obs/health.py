"""The detector engine over run telemetry, seen from two perspectives.

A :class:`Rule` points one detector at one target; each alarm becomes a
:class:`Finding` in a severity-ranked :class:`Report`.  The scanned
series comes from one of two sources:

* :func:`evaluate_health` reads **one run** (manifest payload plus its
  :class:`~repro.obs.windows.WindowReport`, when stored) and scans each
  target's per-window series; a scalar target is a one-point series.
  It runs in-run (``ScenarioRun.health``) and behind ``repro obs
  health``.
* :func:`run_regression` reads a :class:`~repro.obs.query.QueryFrame`
  and scans **one run-ordered series per configuration fingerprint**
  (``series:`` targets reduced per run by their mean), behind ``repro
  obs regress``.

Both resolve targets with :func:`repro.obs.query.resolve_target`; a
target a run lacks is skipped, never read as zero.  The detectors:
``max``/``min`` static bounds; ``band``, a ratio tolerance around the
trailing median plus an absolute noise floor (steps); ``ewma``, a
z-score against the exponentially weighted trail (spikes); and
``page_hinkley``, the sequential changepoint test of the
online-clustering papers in PAPERS.md (slow creeps).  The trend
detectors are two-sided on metric targets and one-sided on wall-clock
``span:`` targets, where only a slowdown is a regression.

Findings are a pure function of the scanned payloads, so two runs of
one ``(seed, config)`` yield byte-identical reports.  A baseline report suppresses
findings by :meth:`Finding.key` — ``(rule, detector, target, window)``
— so CI gates only on *new* ones; cross-run findings carry no window
and stay suppressed whichever later run re-trips them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.obs.query import QueryFrame, aggregate, parse_target, resolve_target
from repro.util.canonical import canonical_digest
from repro.util.validation import require

#: Report schema version; bump on incompatible layout changes.
REPORT_SCHEMA = 2

#: Report kinds: which perspective produced the findings.
REPORT_KINDS = ("health", "regress")

#: Severities in ascending order of alarm.
SEVERITIES = ("info", "warning", "critical")

_SEVERITY_RANK = {name: rank for rank, name in enumerate(SEVERITIES)}

#: Detectors a rule may run.
DETECTORS = ("max", "min", "band", "ewma", "page_hinkley")

#: EWMA smoothing factor: ~the last five points dominate the trail.
EWMA_ALPHA = 0.3

#: ``ewma`` and ``page_hinkley`` stay silent until this many points of
#: history exist (cold-start noise).
MIN_HISTORY = 3

#: Z-score alarm threshold of every shipped ``ewma`` rule.
ZSCORE_THRESHOLD = 4.0

#: Page-Hinkley drift allowance and (shipped) alarm threshold, relative
#: to the series' running mean magnitude.
PH_DELTA_REL = 0.02
PH_LAMBDA_REL = 0.25

#: Band tolerances of the shipped cross-run rules (``obs diff``'s
#: timing tolerance for spans) and the absolute timing noise floor.
METRIC_TOLERANCE = 1.25
TIMING_TOLERANCE = 1.5
TIMING_NOISE_FLOOR = 0.05


@dataclass(frozen=True)
class Rule:
    """One detector pointed at one target."""

    name: str
    #: ``metric:``/``series:``/``golden:``/``span:`` selector.
    target: str
    severity: str
    detector: str
    #: Bound (``max``/``min``), ratio tolerance (``band``), z-score
    #: (``ewma``) or relative alarm level (``page_hinkley``).
    threshold: float
    #: ``band`` only: absolute moves at or below this never flag.
    noise_floor: float = 0.0
    #: Human framing of why the rule exists (rendered with findings).
    detail: str = ""

    def __post_init__(self) -> None:
        require(self.severity in SEVERITIES, f"unknown severity {self.severity!r}")
        require(self.detector in DETECTORS, f"unknown detector {self.detector!r}")
        parse_target(self.target)  # fail fast on a malformed selector
        if self.detector == "band":
            require(self.threshold >= 1.0, "band tolerance must be >= 1.0")


@dataclass(frozen=True)
class Finding:
    """One detector alarm: what fired, where, by how much."""

    rule: str
    detector: str
    target: str
    severity: str
    #: The flagged point of the series.
    value: float
    #: What the detector compared against ``threshold``: the value
    #: itself (``max``/``min``), band ratio, z-score or PH statistic.
    score: float
    threshold: float
    #: Trailing estimate the point was judged against (band median,
    #: EWMA mean, PH mean); ``None`` for static bounds.
    reference: float | None = None
    detail: str = ""
    #: Window index of an in-run finding on a window series.
    window: int | None = None
    #: Cross-run findings: the flagged run, its position in its
    #: fingerprint's run-ordered series, and that fingerprint.
    position: int | None = None
    run_id: str = ""
    fingerprint: str = ""

    def __post_init__(self) -> None:
        require(self.severity in SEVERITIES, f"unknown severity {self.severity!r}")
        require(self.detector in DETECTORS, f"unknown detector {self.detector!r}")

    def key(self) -> tuple[str, str, str, int | None]:
        """Identity for baseline suppression (magnitudes and runs ignored)."""
        return (self.rule, self.detector, self.target, self.window)

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "detector": self.detector,
            "target": self.target,
            "severity": self.severity,
            "value": round(float(self.value), 9),
            "score": round(float(self.score), 9),
            "threshold": round(float(self.threshold), 9),
            "reference": (
                None if self.reference is None else round(float(self.reference), 9)
            ),
            "detail": self.detail,
            "window": self.window,
            "position": self.position,
            "run_id": self.run_id,
            "fingerprint": self.fingerprint,
        }

    def render(self) -> str:
        where = ""
        if self.window is not None:
            where = f" [window {self.window}]"
        elif self.position is not None:
            where = f" run {self.run_id} (#{self.position})"
        # A static bound's score is the value itself: no trail to show.
        trail = ""
        if self.reference is not None:
            trail = f" score {self.score:g} vs {self.reference:g},"
        line = (
            f"{self.severity.upper():<8} {self.rule}: {self.target}{where} "
            f"= {self.value:g} ({self.detector}{trail} threshold {self.threshold:g})"
        )
        return f"{line} — {self.detail}" if self.detail else line


#: JSON types of a saved finding's fields; the ``_NULLABLE`` ones may be null.
_FINDING_TYPES = {
    "rule": str,
    "detector": str,
    "target": str,
    "severity": str,
    "value": float,
    "score": float,
    "threshold": float,
    "reference": float,
    "detail": str,
    "window": int,
    "position": int,
    "run_id": str,
    "fingerprint": str,
}
_NULLABLE = ("reference", "window", "position")


def _field(raw: Mapping, name: str, kind: type):
    """``raw[name]``, required present and of type ``kind``."""
    require(isinstance(raw, Mapping), f"expected a JSON object, got {raw!r}")
    require(name in raw, f"report field {name!r} is missing")
    value = raw[name]
    if value is None and name in _NULLABLE:
        return None
    allowed = (int, float) if kind is float else kind
    require(
        isinstance(value, allowed) and not isinstance(value, bool),
        f"report field {name!r} must be {kind.__name__}, got {value!r}",
    )
    return float(value) if kind is float else value


@dataclass
class Report:
    """Severity-ranked findings of one rule-set scan."""

    kind: str
    findings: list[Finding] = field(default_factory=list)
    rules_evaluated: int = 0
    runs_scanned: int = 0
    fingerprints_scanned: int = 0
    schema: int = REPORT_SCHEMA

    def summary(self) -> dict[str, int]:
        """Finding counts per severity — the manifest's ``health_summary``."""
        counts = {severity: 0 for severity in SEVERITIES}
        for finding in self.findings:
            counts[finding.severity] += 1
        return counts

    def as_dict(self) -> dict:
        return {
            "schema": self.schema,
            "kind": self.kind,
            "rules_evaluated": self.rules_evaluated,
            "runs_scanned": self.runs_scanned,
            "fingerprints_scanned": self.fingerprints_scanned,
            "summary": self.summary(),
            "findings": [finding.as_dict() for finding in self.findings],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2)

    def digest(self) -> str:
        """Canonical content address (determinism-checked in tests)."""
        return canonical_digest(self.as_dict())

    def render(self) -> str:
        """Human-readable report, most severe first."""
        counts = self.summary()
        head = ", ".join(
            f"{counts[severity]} {severity}"
            for severity in reversed(SEVERITIES)
            if counts[severity]
        )
        lines = [
            f"{self.kind}: {len(self.findings)} finding(s) ({head or 'clean'}) "
            f"from {self.rules_evaluated} rule(s) over {self.runs_scanned} "
            f"run(s) in {self.fingerprints_scanned} configuration(s)"
        ]
        lines.extend(f"  {finding.render()}" for finding in self.findings)
        return "\n".join(lines)

    @classmethod
    def from_dict(cls, payload: Mapping) -> "Report":
        """Rebuild a saved report; malformed payloads raise ``ValidationError``."""
        require(isinstance(payload, Mapping), "report must be a JSON object")
        require(
            payload.get("schema") == REPORT_SCHEMA,
            f"unsupported report schema {payload.get('schema')!r} "
            f"(expected {REPORT_SCHEMA})",
        )
        kind = payload.get("kind")
        require(kind in REPORT_KINDS, f"unknown report kind {kind!r}")
        raw_findings = payload.get("findings")
        require(isinstance(raw_findings, list), "report findings must be a list")
        findings = [
            Finding(**{name: _field(raw, name, typ) for name, typ in _FINDING_TYPES.items()})
            for raw in raw_findings
        ]
        return cls(
            kind=kind,
            findings=findings,
            rules_evaluated=_field(payload, "rules_evaluated", int),
            runs_scanned=_field(payload, "runs_scanned", int),
            fingerprints_scanned=_field(payload, "fingerprints_scanned", int),
        )


#: In-run rules.  Deliberately conservative: every rule reads
#: *deterministic* telemetry (no wall-clock metrics), so the in-run
#: report stays byte-identical across runs of one config.  Mirrored in
#: ``docs/ARCHITECTURE.md``'s detector section.
HEALTH_RULES: tuple[Rule, ...] = (
    Rule(
        name="samples-collected",
        target="metric:honeypot.samples_collected",
        severity="critical",
        detector="min",
        threshold=1,
        detail="the observation stage collected no binaries at all",
    ),
    Rule(
        name="bclusters-exist",
        target="metric:lsh.clusters",
        severity="critical",
        detector="min",
        threshold=1,
        detail="behavioural clustering produced no clusters",
    ),
    Rule(
        name="lsh-guard-quiet",
        target="metric:lsh.buckets_skipped",
        severity="warning",
        detector="max",
        threshold=0,
        detail="the LSH bucket-size guard dropped candidate pairs",
    ),
    Rule(
        name="golden-headline",
        target="golden:deviations",
        severity="warning",
        detector="max",
        threshold=0,
        detail="the run deviates from the paper's golden headline",
    ),
    Rule(
        name="crossview-agreement-floor",
        target="series:agreement",
        severity="warning",
        detector="min",
        threshold=0.25,
        detail="static and behavioural views disagree on this window "
        "(poisoning or environment sensitivity — see PAPERS.md)",
    ),
    Rule(
        name="event-rate-anomaly",
        target="series:events",
        severity="warning",
        detector="ewma",
        threshold=ZSCORE_THRESHOLD,
        detail="per-window attack volume jumped against its own trail",
    ),
    Rule(
        name="bcluster-churn-anomaly",
        target="series:b_churn",
        severity="info",
        detector="ewma",
        threshold=ZSCORE_THRESHOLD,
        detail="behavioural cluster turnover spiked in this window",
    ),
)


def _is_timing(target: str) -> bool:
    """Whether ``target`` is wall-clock (``span:``): machine-dependent,
    and a run that got faster is not a regression, so trend scans on it
    are one-sided."""
    return target.startswith("span:")


def _trend_rules(
    name: str,
    target: str,
    detail: str = "wall-clock trend (machine-dependent; never gates CI)",
) -> tuple[Rule, ...]:
    """One rule per trend detector (``band``, ``ewma``, ``page_hinkley``).

    Wall-clock (``span:``) targets are machine-dependent: warning
    severity, the looser ``obs diff`` timing band and a noise floor so
    sub-50ms jitter never alarms, and the scans flag only a slowdown
    (:func:`_is_timing`).  CI gates at critical, so they inform but
    never gate; semantic metric targets gate at critical.
    """
    timing = _is_timing(target)
    thresholds = {
        "band": TIMING_TOLERANCE if timing else METRIC_TOLERANCE,
        "ewma": ZSCORE_THRESHOLD,
        "page_hinkley": PH_LAMBDA_REL,
    }
    return tuple(
        Rule(
            name,
            target,
            "warning" if timing else "critical",
            detector,
            threshold,
            TIMING_NOISE_FLOOR if timing else 0.0,
            detail,
        )
        for detector, threshold in thresholds.items()
    )


#: Cross-run rules over semantic metrics: deterministic, gate-grade.
METRIC_RULES: tuple[Rule, ...] = (
    *_trend_rules(
        "bcluster-count",
        "metric:lsh.clusters",
        "behavioural cluster count moved against its own history",
    ),
    *_trend_rules(
        "epm-pattern-count",
        "metric:epm.patterns_discovered",
        "EPM pattern count moved against its own history",
    ),
    *_trend_rules(
        "sample-volume",
        "metric:honeypot.samples_collected",
        "collected-binary volume moved against its own history",
    ),
    *_trend_rules(
        "golden-deviation-count",
        "golden:deviations",
        "golden-headline deviation count moved against its own history",
    ),
)

#: Cross-run rules over the pipeline's span probes: informational trend.
TIMING_RULES: tuple[Rule, ...] = (
    *_trend_rules("scenario-seconds", "span:scenario"),
    *_trend_rules("observe-seconds", "span:observe"),
    *_trend_rules("epm-seconds", "span:epm"),
    *_trend_rules("bcluster-seconds", "span:bcluster"),
)

#: The shipped cross-run rule set.  Mirrored in ``docs/ARCHITECTURE.md``.
REGRESS_RULES: tuple[Rule, ...] = METRIC_RULES + TIMING_RULES


def _alarm(position, value, reference, score, threshold) -> dict:
    """One flagged point, as every ``*_scan(rule, series)`` detector returns it."""
    return {
        "position": position,
        "value": value,
        "reference": reference,
        "score": score,
        "threshold": threshold,
    }


def bound_scan(rule: Rule, series: Sequence[float]) -> list[dict]:
    """Static bound: every point above (``max``) / below (``min``)."""
    above = rule.detector == "max"
    return [
        _alarm(position, value, None, value, rule.threshold)
        for position, value in enumerate(series)
        if (value > rule.threshold if above else value < rule.threshold)
    ]


def band_scan(rule: Rule, series: Sequence[float]) -> list[dict]:
    """Trailing-median tolerance band: flag steps out of the corridor.

    Each point is compared against the median of the points *before*
    it, so a step cannot mask itself; one point of history suffices
    (the ``obs diff`` pairwise check is the two-run special case).
    Timing targets flag only points above the median.
    """
    upward = _is_timing(rule.target)
    alarms: list[dict] = []
    for position in range(1, len(series)):
        history = sorted(series[:position])
        mid = len(history) // 2
        median = (
            history[mid]
            if len(history) % 2
            else (history[mid - 1] + history[mid]) / 2.0
        )
        value = series[position]
        if abs(value - median) <= rule.noise_floor or (upward and value <= median):
            continue
        if median == 0:
            ratio = math.inf if value else 1.0
        else:
            ratio = max(value / median, median / value) if value > 0 else math.inf
            if value < 0 or median < 0:  # mixed signs: always out of band
                ratio = math.inf
        if ratio > rule.threshold:
            alarms.append(_alarm(position, value, median, ratio, rule.threshold))
    return alarms


def ewma_scan(rule: Rule, series: Sequence[float]) -> list[dict]:
    """EWMA z-score scan: flag points far from their own trail.

    Mean and variance are exponentially weighted with
    :data:`EWMA_ALPHA`; each point is scored against the estimate built
    from the points *before* it, so a spike does not mask itself.  A
    constant series has zero variance and never alarms.  Timing targets
    score only spikes above the trail.
    """
    upward = _is_timing(rule.target)
    alarms: list[dict] = []
    mean = 0.0
    var = 0.0
    for position, value in enumerate(series):
        if position >= MIN_HISTORY and var > 0:
            z = (value - mean) / math.sqrt(var)
            z = z if upward else abs(z)
            if z > rule.threshold:
                alarms.append(
                    _alarm(position, value, mean, round(z, 6), rule.threshold)
                )
        if position == 0:
            mean = value
            var = 0.0
        else:
            delta = value - mean
            mean += EWMA_ALPHA * delta
            var = (1 - EWMA_ALPHA) * (var + EWMA_ALPHA * delta * delta)
    return alarms


def page_hinkley_scan(rule: Rule, series: Sequence[float]) -> list[dict]:
    """Page-Hinkley changepoint test, two-sided (one-sided for timings).

    The upward statistic accumulates ``value - mean - delta`` and alarms
    when it exceeds its own running minimum by ``lambda``; the downward
    side mirrors it, except on timing targets, where only the upward
    side can alarm.  ``delta`` (:data:`PH_DELTA_REL`) and ``lambda``
    (the rule's threshold) are relative to the series' running mean
    magnitude (fallback 1.0 near zero), so counts in the thousands and
    seconds in the tenths share one rule.  Both statistics stay at zero
    on a constant series — byte-identical replays can never alarm.
    """
    upward = _is_timing(rule.target)
    alarms: list[dict] = []
    mean = 0.0
    m_up = 0.0
    min_up = 0.0
    m_down = 0.0
    max_down = 0.0
    for position, value in enumerate(series):
        mean += (value - mean) / (position + 1)
        scale = max(abs(mean), 1.0)
        delta = PH_DELTA_REL * scale
        alarm_at = rule.threshold * scale
        m_up += value - mean - delta
        min_up = min(min_up, m_up)
        m_down += value - mean + delta
        max_down = max(max_down, m_down)
        if position + 1 < MIN_HISTORY:
            continue
        score = m_up - min_up
        if not upward:
            score = max(score, max_down - m_down)
        if score > alarm_at:
            alarms.append(
                _alarm(position, value, mean, round(score, 6), round(alarm_at, 6))
            )
            # Restart the test after an alarm so one changepoint does
            # not cascade into an alarm on every subsequent point.
            m_up = min_up = m_down = max_down = 0.0
    return alarms


_SCANNERS = {
    "max": bound_scan,
    "min": bound_scan,
    "band": band_scan,
    "ewma": ewma_scan,
    "page_hinkley": page_hinkley_scan,
}


def _findings(rule: Rule, series: Sequence[float], place) -> list[Finding]:
    """Run ``rule``'s detector; ``place(position)`` locates each alarm."""
    return [
        Finding(
            rule=rule.name,
            detector=rule.detector,
            target=rule.target,
            severity=rule.severity,
            value=float(alarm["value"]),
            score=float(alarm["score"]),
            threshold=float(alarm["threshold"]),
            reference=alarm["reference"],
            detail=rule.detail,
            **place(alarm["position"]),
        )
        for alarm in _SCANNERS[rule.detector](rule, series)
    ]


def _ranked(findings: list[Finding]) -> list[Finding]:
    return sorted(
        findings,
        key=lambda f: (
            -_SEVERITY_RANK[f.severity],
            f.rule,
            f.detector,
            f.target,
            f.fingerprint,
            -1 if f.window is None else f.window,
            -1 if f.position is None else f.position,
        ),
    )


def evaluate_health(
    manifest: Mapping,
    windows: Mapping | None = None,
    *,
    rules: Sequence[Rule] = HEALTH_RULES,
) -> Report:
    """Scan one run: each rule over its target's per-window series.

    ``manifest`` is a run-manifest payload (or any mapping with
    ``metrics`` / ``golden_deviations`` sections); ``windows`` is the
    matching :meth:`~repro.obs.windows.WindowReport.as_dict` payload
    when one exists.  Window findings carry their window index; scalar
    targets are one-point series whose findings carry none.
    """
    findings: list[Finding] = []
    for rule in rules:
        value = resolve_target(manifest, windows, rule.target)
        if value is None:
            continue
        if isinstance(value, list):
            findings += _findings(rule, value, lambda index: {"window": index})
        else:
            findings += _findings(rule, [value], lambda _index: {})
    return Report(
        kind="health",
        findings=_ranked(findings),
        rules_evaluated=len(rules),
        runs_scanned=1,
        fingerprints_scanned=1,
    )


def _run_series(frame: QueryFrame, target: str) -> tuple[list[float], list[int]]:
    """Run-ordered scalar series for ``target`` plus row positions.

    ``series:`` targets (per-window vectors) are reduced per run by
    their mean, so the cross-run series tracks "this run's typical
    window".  Rows without the telemetry are skipped, keeping the
    detectors blind to absence rather than treating it as zero.
    """
    values: list[float] = []
    rows: list[int] = []
    for row, value in enumerate(frame.column(target)):
        if isinstance(value, list):
            value = aggregate(value, "mean")
        if value is None:
            continue
        values.append(float(value))
        rows.append(row)
    return values, rows


def run_regression(
    frame: QueryFrame,
    *,
    rules: Sequence[Rule] = REGRESS_RULES,
    fingerprint: str | None = None,
) -> Report:
    """Scan the frame: each rule over each fingerprint's run series.

    Series are built **per configuration fingerprint** — cross-config
    values are not comparable — and a fingerprint needs at least two
    runs to have a trend at all.  ``fingerprint`` restricts the scan to
    one configuration (prefix match, as in :meth:`QueryFrame.filter`).
    """
    if fingerprint is not None:
        frame = frame.filter(fingerprint=fingerprint)
    groups = {fp: group for fp, group in frame.grouped().items() if len(group) >= 2}
    findings: list[Finding] = []
    for fp, group in groups.items():
        for rule in rules:
            series, rows = _run_series(group, rule.target)
            findings += _findings(
                rule,
                series,
                lambda position: {
                    "position": position,
                    "run_id": group.rows[rows[position]].run_id,
                    "fingerprint": fp,
                },
            )
    return Report(
        kind="regress",
        findings=_ranked(findings),
        rules_evaluated=len(rules),
        runs_scanned=len(frame),
        fingerprints_scanned=len(groups),
    )


def band_rule(target: str) -> Rule:
    """The ``band`` rule ``obs regress`` runs on ``target``.

    The shipped :data:`REGRESS_RULES` member when one exists, else the
    ``band`` member of the default trend rules for that target.
    """
    return next(
        rule
        for rule in REGRESS_RULES + _trend_rules(target, target)
        if rule.target == target and rule.detector == "band"
    )


def new_findings(report: Report, baseline: Report | None) -> list[Finding]:
    """Findings in ``report`` whose :meth:`Finding.key` ``baseline`` lacks.

    A known finding drifting in magnitude — or, across runs, re-tripped
    by a later run — never re-fires a gate; the same rule tripping on a
    *new* window, detector or target does.
    """
    if baseline is None:
        return list(report.findings)
    known = {finding.key() for finding in baseline.findings}
    return [f for f in report.findings if f.key() not in known]
