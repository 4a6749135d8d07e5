"""The SLO/health-rule engine: thresholds, anomalies, baselines."""

import json

import pytest

from repro.obs.health import (
    HEALTH_RULES,
    MIN_HISTORY,
    SEVERITIES,
    Finding,
    Report,
    Rule,
    evaluate_health,
    new_findings,
)
from repro.util.validation import ValidationError


def _manifest(**overrides) -> dict:
    payload = {
        "metrics": {
            "schema": 1,
            "counters": {"executor.worker_failures": 0.0},
            "gauges": {"lsh.clusters": 9.0, "lsh.buckets_skipped": 0.0},
            "histograms": {},
        },
        "golden_deviations": [],
    }
    payload.update(overrides)
    return payload


def _windows(**series) -> dict:
    return {"schema": 1, "series": {name: list(v) for name, v in series.items()}}


def _rule(**overrides) -> Rule:
    fields = dict(
        name="rule",
        severity="warning",
        target="metric:lsh.clusters",
        detector="max",
        threshold=0,
    )
    fields.update(overrides)
    return Rule(**fields)


class TestHealthRule:
    def test_unknown_severity_rejected(self):
        with pytest.raises(ValidationError):
            _rule(severity="panic")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            _rule(detector="between")

    def test_unknown_target_scheme_rejected(self):
        with pytest.raises(ValidationError):
            _rule(target="gauge:lsh.clusters")

    def test_zscore_needs_a_series_target(self):
        # A scalar target is a one-point series: an ewma rule on it is
        # valid (a cross-run scan gives it a history) but never fires
        # within one run, however low its threshold.
        rule = _rule(detector="ewma", threshold=0.0)
        assert evaluate_health(_manifest(), rules=(rule,)).findings == []
        series = _rule(detector="ewma", threshold=0.0, target="series:events")
        windows = _windows(events=[1.0, 2.0, 1.0, 9.0])
        assert evaluate_health(_manifest(), windows, rules=(series,)).findings

    def test_default_rules_cover_every_severity(self):
        assert {rule.severity for rule in HEALTH_RULES} == set(SEVERITIES)


class TestEvaluateHealth:
    def test_clean_run_yields_no_findings(self):
        report = evaluate_health(_manifest())
        assert report.findings == []
        assert report.rules_evaluated == len(HEALTH_RULES)
        assert report.worst() is None
        assert report.summary() == {"info": 0, "warning": 0, "critical": 0}

    def test_max_rule_fires_above_threshold(self):
        manifest = _manifest()
        manifest["metrics"]["counters"]["executor.worker_failures"] = 2.0
        report = evaluate_health(manifest)
        assert report.worst() == "critical"
        finding = report.findings[0]
        assert finding.rule == "workers-healthy"
        assert finding.value == 2.0 and finding.window is None

    def test_min_rule_fires_below_threshold(self):
        manifest = _manifest()
        manifest["metrics"]["gauges"]["lsh.clusters"] = 0.0
        report = evaluate_health(manifest)
        assert [f.rule for f in report.findings] == ["bclusters-exist"]

    def test_absent_target_is_skipped_not_violated(self):
        manifest = _manifest()
        del manifest["metrics"]["gauges"]["lsh.clusters"]
        assert evaluate_health(manifest).findings == []

    def test_golden_deviations_counted(self):
        report = evaluate_health(_manifest(golden_deviations=["events: off"]))
        assert [f.rule for f in report.findings] == ["golden-headline"]
        assert report.findings[0].value == 1.0

    def test_series_rule_fires_per_offending_window(self):
        windows = _windows(agreement=[0.9, 0.1, 0.8, 0.2])
        report = evaluate_health(_manifest(), windows)
        agreement = [f for f in report.findings if f.rule == "crossview-agreement-floor"]
        assert [f.window for f in agreement] == [1, 3]
        assert all(f.value < 0.25 for f in agreement)

    def test_series_rules_skipped_without_a_window_report(self):
        assert evaluate_health(_manifest(), None).findings == []

    def test_zscore_flags_a_spike_against_its_own_trail(self):
        windows = _windows(events=[100.0, 104.0, 98.0, 102.0, 99.0, 500.0])
        report = evaluate_health(_manifest(), windows)
        spikes = [f for f in report.findings if f.rule == "event-rate-anomaly"]
        assert [f.window for f in spikes] == [5]
        assert spikes[0].value == 500.0
        assert spikes[0].score > spikes[0].threshold

    def test_zscore_ignores_the_cold_start(self):
        # The spike sits inside the MIN_HISTORY warm-up: nothing fires.
        values = [100.0] * MIN_HISTORY
        values[1] = 500.0
        report = evaluate_health(_manifest(), _windows(events=values))
        assert [f for f in report.findings if f.rule == "event-rate-anomaly"] == []

    def test_zscore_is_quiet_on_a_flat_series(self):
        report = evaluate_health(_manifest(), _windows(events=[7.0] * 10))
        assert report.findings == []

    def test_findings_rank_most_severe_first(self):
        manifest = _manifest(golden_deviations=["off"])
        manifest["metrics"]["counters"]["executor.worker_failures"] = 1.0
        windows = _windows(b_churn=[10.0, 11.0, 9.0, 10.0, 80.0])
        report = evaluate_health(manifest, windows)
        assert [f.severity for f in report.findings] == [
            "critical",
            "warning",
            "info",
        ]
        assert report.at_or_above("warning") == report.findings[:2]

    def test_custom_rule_set(self):
        rules = (_rule(name="cap-clusters", threshold=5),)
        report = evaluate_health(_manifest(), rules=rules)
        assert report.rules_evaluated == 1
        assert [f.rule for f in report.findings] == ["cap-clusters"]


class TestHealthReport:
    def _report(self) -> Report:
        manifest = _manifest(golden_deviations=["off", "again"])
        return evaluate_health(manifest, _windows(agreement=[0.9, 0.1]))

    def test_json_round_trip(self):
        report = self._report()
        rebuilt = Report.from_dict(json.loads(report.to_json()))
        assert rebuilt.as_dict() == report.as_dict()
        assert rebuilt.digest() == report.digest()

    def test_unknown_schema_rejected(self):
        payload = self._report().as_dict()
        payload["schema"] = 99
        with pytest.raises(ValidationError):
            Report.from_dict(payload)

    def test_render_names_every_finding(self):
        text = self._report().render()
        assert "2 finding(s)" in text and "2 warning" in text
        assert "WARNING  golden-headline" in text
        assert "[window 1]" in text  # series findings carry their window

    def test_unknown_severity_floor_rejected(self):
        with pytest.raises(ValidationError):
            self._report().at_or_above("panic")


class TestNewFindings:
    def _finding(self, **overrides) -> Finding:
        fields = dict(
            rule="golden-headline",
            detector="max",
            severity="warning",
            target="golden:deviations",
            value=1.0,
            score=1.0,
            threshold=0.0,
            window=None,
        )
        fields.update(overrides)
        return Finding(**fields)

    def test_no_baseline_means_everything_is_new(self):
        report = Report("health", findings=[self._finding()], rules_evaluated=1)
        assert new_findings(report, None) == report.findings

    def test_known_finding_does_not_refire_on_value_drift(self):
        baseline = Report("health", findings=[self._finding(value=1.0)])
        current = Report("health", findings=[self._finding(value=5.0)])
        assert new_findings(current, baseline) == []

    def test_same_rule_on_a_new_window_is_new(self):
        baseline = Report(
            "health", findings=[self._finding(target="series:agreement", window=1)]
        )
        current = Report(
            "health",
            findings=[
                self._finding(target="series:agreement", window=1),
                self._finding(target="series:agreement", window=3),
            ],
        )
        assert [f.window for f in new_findings(current, baseline)] == [3]


class TestScenarioHealth:
    def test_run_carries_a_ranked_report(self, small_run):
        assert small_run.health is not None
        assert small_run.health.rules_evaluated == len(HEALTH_RULES)
        ranks = [SEVERITIES.index(f.severity) for f in small_run.health.findings]
        assert ranks == sorted(ranks, reverse=True)

    def test_manifest_summary_matches_the_report(self, small_run):
        assert small_run.manifest.health_summary == small_run.health.summary()

    def test_offline_evaluation_reproduces_the_in_run_report(self, small_run):
        """``repro obs health`` re-evaluates from the stored payloads;
        that must land on the very findings the run computed live."""
        offline = evaluate_health(
            small_run.manifest.as_dict(), small_run.windows.as_dict()
        )
        assert offline.as_dict() == small_run.health.as_dict()
        assert offline.digest() == small_run.health.digest()
