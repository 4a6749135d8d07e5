"""Cross-run regression detection: scanners, rules, reports, baselines."""

import dataclasses
import json

import pytest

from repro.experiments.scenario import PaperScenario, ScenarioConfig
from repro.obs.health import (
    DETECTORS,
    METRIC_RULES,
    REGRESS_RULES,
    TIMING_RULES,
    Report,
    Rule,
    band_scan,
    evaluate_health,
    ewma_scan,
    new_findings,
    page_hinkley_scan,
    run_regression,
)
from repro.obs.manifest import RunManifest
from repro.util.canonical import canonical_digest
from repro.util.validation import ValidationError

from tests.helpers import frame_from_payloads

BAND = Rule("clusters", "metric:lsh.clusters", "critical", "band", 1.25)
EWMA = Rule("clusters", "metric:lsh.clusters", "critical", "ewma", 4.0)
PAGE_HINKLEY = Rule("clusters", "metric:lsh.clusters", "critical", "page_hinkley", 0.25)
TIMING_BAND = Rule("observe-seconds", "span:observe", "warning", "band", 1.5, noise_floor=0.05)
OBSERVE_RULES = tuple(rule for rule in TIMING_RULES if rule.target == "span:observe")


def _payload(
    *,
    fingerprint: str = "ab" * 32,
    clusters: float = 9.0,
    observe_seconds: float = 1.0,
    observe_cache: str = "off",
    created_at: str = "2026-01-01T00:00:00Z",
) -> dict:
    return RunManifest(
        fingerprint=fingerprint,
        seed=7,
        config={"n_weeks": 10},
        library_version="1.0.0",
        span_tree={
            "name": "scenario",
            "seconds": observe_seconds + 0.5,
            "children": [
                {
                    "name": "observe",
                    "seconds": observe_seconds,
                    "attributes": {"cache": observe_cache},
                }
            ],
        },
        metrics={
            "schema": 3,
            "counters": {},
            "gauges": {"lsh.clusters": clusters},
            "sketches": {},
        },
        created_at=created_at,
    ).as_dict()


def _series_payloads(clusters, fingerprint="ab" * 32):
    return [
        _payload(
            fingerprint=fingerprint,
            clusters=value,
            created_at=f"2026-01-{day:02d}T00:00:00Z",
        )
        for day, value in enumerate(clusters, start=1)
    ]


class TestRegressRule:
    def test_defaults_run_every_detector(self):
        # Every shipped target runs each trend detector, one rule apiece.
        detectors: dict[str, list[str]] = {}
        for rule in REGRESS_RULES:
            detectors.setdefault(rule.target, []).append(rule.detector)
        trend = ["band", "ewma", "page_hinkley"]
        assert all(sorted(found) == trend for found in detectors.values())
        assert set(trend) < set(DETECTORS)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"severity": "fatal"},
            {"detector": "cusum"},
            {"threshold": 0.9},
            {"target": "lsh.clusters"},
        ],
    )
    def test_invalid_rules_rejected(self, kwargs):
        base = {
            "name": "r",
            "target": "metric:lsh.clusters",
            "severity": "critical",
            "detector": "band",
            "threshold": 1.25,
        }
        with pytest.raises(ValidationError):
            Rule(**{**base, **kwargs})

    def test_shipped_rule_set_is_metric_plus_timing(self):
        assert REGRESS_RULES == METRIC_RULES + TIMING_RULES
        assert all(rule.severity == "critical" for rule in METRIC_RULES)
        assert all(rule.severity == "warning" for rule in TIMING_RULES)


class TestBandScan:
    def test_constant_series_is_silent(self):
        assert band_scan(BAND, [9.0] * 6) == []

    def test_step_flagged_at_its_position_against_trailing_median(self):
        alarms = band_scan(BAND, [9.0, 9.0, 9.0, 27.0])
        assert len(alarms) == 1
        assert alarms[0]["position"] == 3
        assert alarms[0]["reference"] == 9.0
        assert alarms[0]["score"] == pytest.approx(3.0)

    def test_one_point_of_history_suffices(self):
        # The obs-diff pairwise check is the two-run special case.
        assert band_scan(BAND, [9.0, 27.0])[0]["position"] == 1

    def test_drops_flag_symmetrically_with_rises(self):
        assert band_scan(BAND, [9.0, 9.0, 3.0])[0]["score"] == (
            pytest.approx(3.0)
        )

    def test_noise_floor_absorbs_small_absolute_moves(self):
        # 0.04s jitter is a huge *ratio* on a 0.02s span but sits under
        # the 50ms floor: timing rules must not alarm on it.
        assert band_scan(TIMING_BAND, [0.02, 0.06]) == []
        assert band_scan(TIMING_BAND, [0.02, 0.5]) != []

    def test_zero_history_median_flags_any_nonzero_value(self):
        alarms = band_scan(BAND, [0.0, 5.0])
        assert len(alarms) == 1 and alarms[0]["score"] == float("inf")

    def test_sign_flip_is_always_out_of_band(self):
        assert band_scan(BAND, [4.0, -4.0])[0]["score"] == float("inf")


class TestEwmaScan:
    def test_constant_series_is_silent(self):
        # Zero variance means no z-score is defined; the var>0 guard
        # keeps byte-identical replays from dividing by zero or alarming.
        assert ewma_scan(EWMA, [9.0] * 8) == []

    def test_step_after_noisy_history_is_flagged(self):
        series = [10.0, 10.2, 9.8, 10.1, 9.9, 20.0]
        alarms = ewma_scan(EWMA, series)
        assert [alarm["position"] for alarm in alarms] == [5]
        assert alarms[0]["score"] > EWMA.threshold

    def test_jitter_within_band_is_silent(self):
        assert ewma_scan(EWMA, [10.0, 10.2, 9.8, 10.1, 9.9, 10.05]) == []

    def test_needs_min_history_before_alarming(self):
        # The step sits at position 2 — before three runs of history,
        # so only the band detector may catch it.
        assert ewma_scan(EWMA, [10.0, 10.2, 30.0]) == []


class TestPageHinkleyScan:
    def test_constant_series_is_silent(self):
        assert page_hinkley_scan(PAGE_HINKLEY, [100.0] * 10) == []

    def test_small_jitter_is_silent(self):
        series = [100.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]
        assert page_hinkley_scan(PAGE_HINKLEY, series) == []

    def test_slow_creep_is_flagged(self):
        # +3 per run never trips a single-step band but accumulates.
        series = [100.0 + 3.0 * i for i in range(12)]
        alarms = page_hinkley_scan(PAGE_HINKLEY, series)
        assert alarms, "creep must accumulate into an alarm"
        assert all(alarm["score"] > alarm["threshold"] for alarm in alarms)

    def test_statistics_reset_after_an_alarm(self):
        creep = [100.0 + 3.0 * i for i in range(12)]
        series = creep + [creep[-1]] * 10
        positions = [
            alarm["position"] for alarm in page_hinkley_scan(PAGE_HINKLEY, series)
        ]
        # Without the post-alarm reset the statistic only grows, so
        # every later run would alarm; with it, alarms stay sparse.
        assert len(positions) < (len(series) - positions[0]) / 2
        assert all(b - a > 1 for a, b in zip(positions, positions[1:]))


class TestTimingRulesFlagOnlySlowdowns:
    """Wall-clock ``span:`` rules are one-sided on every trend detector;
    a metric rule over the same series stays two-sided."""

    RULES = tuple(rule for rule in TIMING_RULES if rule.target == "span:scenario")
    SCANS = {"band": band_scan, "ewma": ewma_scan, "page_hinkley": page_hinkley_scan}
    HISTORY = [6.0, 6.1, 5.9, 6.0]

    def test_every_trend_detector_is_covered(self):
        assert {rule.detector for rule in self.RULES} == set(self.SCANS)

    @pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.detector)
    def test_speedup_is_silent_and_slowdown_flags(self, rule):
        scan = self.SCANS[rule.detector]
        assert scan(rule, self.HISTORY + [2.0]) == []
        assert [alarm["position"] for alarm in scan(rule, self.HISTORY + [18.0])] == [4]

    @pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.detector)
    def test_metric_rules_stay_two_sided(self, rule):
        metric = dataclasses.replace(rule, target="metric:lsh.clusters")
        assert self.SCANS[rule.detector](metric, self.HISTORY + [2.0]) != []

    @staticmethod
    def _scenario_run(seconds, day):
        payload = _payload(created_at=f"2026-01-{day:02d}T00:00:00Z")
        payload["span_tree"]["seconds"] = seconds
        return payload

    def test_faster_run_against_the_reference_is_silent(self):
        # A CI smoke run of 0.090 s against the reference's 0.147 s once
        # scored 1.64 against the 1.5 timing band.
        faster = [self._scenario_run(0.147, 1), self._scenario_run(0.090, 2)]
        assert run_regression(frame_from_payloads(faster), rules=TIMING_RULES).findings == []
        slower = [self._scenario_run(0.147, 1), self._scenario_run(0.441, 2)]
        findings = run_regression(frame_from_payloads(slower), rules=TIMING_RULES).findings
        assert {(f.target, f.detector) for f in findings} == {("span:scenario", "band")}


class TestRunRegression:
    def test_identical_replays_are_silent(self):
        frame = frame_from_payloads(_series_payloads([9.0, 9.0, 9.0]))
        report = run_regression(frame)
        assert report.findings == []
        assert report.runs_scanned == 3
        assert report.fingerprints_scanned == 1

    def test_injected_bump_attributed_to_the_offending_run(self):
        payloads = _series_payloads([9.0, 9.0, 9.0, 27.0])
        frame = frame_from_payloads(payloads)
        report = run_regression(frame, rules=METRIC_RULES)
        assert report.findings, "a 3x cluster bump must flag"
        bumped_id = canonical_digest(payloads[-1])[:16]
        assert {f.run_id for f in report.findings} == {bumped_id}
        assert {f.target for f in report.findings} == {"metric:lsh.clusters"}
        assert {f.detector for f in report.findings} == {"band", "page_hinkley"}
        assert all(f.severity == "critical" for f in report.findings)

    def test_series_are_built_per_fingerprint(self):
        # A lone run of another config must neither trend nor pollute
        # the first config's series.
        payloads = _series_payloads([9.0, 9.0, 9.0]) + [
            _payload(fingerprint="cd" * 32, clusters=500.0)
        ]
        report = run_regression(frame_from_payloads(payloads))
        assert report.findings == []
        assert report.fingerprints_scanned == 1
        assert report.runs_scanned == 4

    def test_fingerprint_filter_restricts_the_scan(self):
        payloads = _series_payloads([9.0, 27.0]) + _series_payloads(
            [5.0, 5.0], fingerprint="cd" * 32
        )
        frame = frame_from_payloads(payloads)
        assert run_regression(frame, fingerprint="cdcd").findings == []
        assert run_regression(frame, fingerprint="abab").findings != []

    def test_replayed_spans_are_skipped_not_zeroed(self):
        # Middle run replayed observe from the stage store: its wall
        # time is absent, and the flagged run must still map back to
        # the right row.
        payloads = [
            _payload(observe_seconds=1.0, created_at="2026-01-01T00:00:00Z"),
            _payload(
                observe_seconds=0.001,
                observe_cache="hit",
                created_at="2026-01-02T00:00:00Z",
            ),
            _payload(observe_seconds=10.0, created_at="2026-01-03T00:00:00Z"),
        ]
        report = run_regression(frame_from_payloads(payloads), rules=OBSERVE_RULES)
        assert len(report.findings) == 1
        finding = report.findings[0]
        assert finding.run_id == canonical_digest(payloads[-1])[:16]
        assert finding.value == 10.0
        assert finding.reference == 1.0  # the cache hit never entered

    def test_findings_rank_critical_before_warning(self):
        payloads = [
            _payload(
                clusters=value,
                observe_seconds=seconds,
                created_at=f"2026-01-{day:02d}T00:00:00Z",
            )
            for day, (value, seconds) in enumerate(
                [(9.0, 1.0), (9.0, 1.0), (27.0, 10.0)], start=1
            )
        ]
        report = run_regression(frame_from_payloads(payloads))
        severities = [finding.severity for finding in report.findings]
        assert "critical" in severities and "warning" in severities
        assert severities == sorted(
            severities, key=["critical", "warning", "info"].index
        )

    def test_real_manifest_replays_are_silent_and_a_bump_flags(self):
        # The synthetic series above carry one gauge; a real smoke
        # manifest carries every metric the shipped rules watch.
        run = PaperScenario(seed=7, config=ScenarioConfig(n_weeks=8, scale=0.05)).run()
        manifest = run.manifest.as_dict()

        def clone(day, bump=1.0):
            payload = json.loads(json.dumps(manifest))
            payload["created_at"] = f"2000-01-{day:02d}T00:00:00Z"
            gauges = payload["metrics"]["gauges"]
            gauges["lsh.clusters"] = float(gauges["lsh.clusters"]) * bump
            return payload

        replays = [clone(day) for day in (1, 2, 3)]
        silent = run_regression(frame_from_payloads(replays), rules=METRIC_RULES)
        assert silent.findings == []
        bumped = run_regression(
            frame_from_payloads(replays + [clone(4, bump=3.0)]), rules=METRIC_RULES
        )
        assert "metric:lsh.clusters" in {f.target for f in bumped.findings}


class TestBaselines:
    def _report(self):
        return run_regression(
            frame_from_payloads(_series_payloads([9.0, 9.0, 9.0, 27.0])),
            rules=METRIC_RULES,
        )

    def test_no_baseline_means_everything_is_new(self):
        report = self._report()
        assert new_findings(report, None) == report.findings

    def test_known_detector_target_pairs_stay_suppressed(self):
        report = self._report()
        # The baseline was recorded on an *older* store: same detector
        # and target, different run ids — must still suppress.
        baseline = run_regression(
            frame_from_payloads(_series_payloads([9.0, 9.0, 27.0])),
            rules=METRIC_RULES,
        )
        assert baseline.findings
        assert new_findings(report, baseline) == []

    def test_fresh_target_trips_despite_baseline(self):
        report = self._report()
        baseline = Report(
            "regress",
            findings=[f for f in report.findings if f.detector == "page_hinkley"],
        )
        fresh = new_findings(report, baseline)
        assert {f.detector for f in fresh} == {"band"}


class TestRegressionReport:
    def test_round_trips_through_json(self):
        report = run_regression(
            frame_from_payloads(_series_payloads([9.0, 9.0, 27.0])),
            rules=METRIC_RULES,
        )
        restored = Report.from_dict(json.loads(report.to_json()))
        assert restored.digest() == report.digest()
        assert restored.findings == report.findings

    def test_unsupported_schema_rejected(self):
        with pytest.raises(ValidationError):
            Report.from_dict({"schema": 99, "findings": []})

    def test_render_names_counts_and_targets(self):
        report = run_regression(
            frame_from_payloads(_series_payloads([9.0, 9.0, 27.0])),
            rules=METRIC_RULES,
        )
        text = report.render()
        assert "critical" in text
        assert "metric:lsh.clusters" in text
        assert "configuration(s)" in text

    def test_clean_report_renders_clean(self):
        report = run_regression(
            frame_from_payloads(_series_payloads([9.0, 9.0]))
        )
        assert "clean" in report.render()
        assert report.summary() == {"info": 0, "warning": 0, "critical": 0}

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda finding: finding.pop("detector"),
            lambda finding: finding.update(position="3"),
            lambda finding: finding.update(severity="fatal"),
        ],
        ids=["missing-detector", "string-position", "unknown-severity"],
    )
    def test_malformed_findings_rejected(self, mutate):
        report = run_regression(
            frame_from_payloads(_series_payloads([9.0, 9.0, 27.0])),
            rules=METRIC_RULES,
        )
        payload = json.loads(report.to_json())
        mutate(payload["findings"][0])
        with pytest.raises(ValidationError):
            Report.from_dict(payload)


class TestOneEngine:
    """Both perspectives feed the same detectors: one series, one answer."""

    SERIES = [10.0, 10.2, 9.8, 10.1, 9.9, 20.0, 20.5, 21.0]

    @pytest.mark.parametrize(
        "detector, threshold",
        [("max", 15.0), ("min", 10.0), ("band", 1.25), ("ewma", 4.0), ("page_hinkley", 0.25)],
    )
    def test_window_and_run_series_raise_the_same_alarms(self, detector, threshold):
        rule = Rule("events", "series:events", "warning", detector, threshold)
        in_run = evaluate_health(
            {"metrics": {}}, {"series": {"events": self.SERIES}}, rules=(rule,)
        )
        # One single-window run per point: each run's mean is the point.
        payloads = _series_payloads([9.0] * len(self.SERIES))
        windows = [{"series": {"events": [value]}} for value in self.SERIES]
        cross_run = run_regression(frame_from_payloads(payloads, windows), rules=(rule,))
        assert in_run.findings, f"{detector} must fire on the step"
        assert [(f.window, f.value, f.score) for f in in_run.findings] == [
            (f.position, f.value, f.score) for f in cross_run.findings
        ]
