"""Telemetry exporters: Prometheus exposition, JSON-lines, Chrome traces."""

import json

import pytest

from repro.obs.export import (
    EXPORT_FORMATS,
    export_payload,
    jsonl_samples,
    jsonl_text,
    openmetrics_text,
    prometheus_text,
)
from repro.obs.metrics import MetricsRegistry
from repro.util.validation import ValidationError


def _snapshot():
    registry = MetricsRegistry()
    registry.counter("executor.items").inc(42)
    registry.counter("epm.patterns", dimension="mu").inc(7)
    registry.gauge("executor.jobs", backend="thread").set(4)
    sketch = registry.sketch("executor.chunk_seconds")
    for value in (0.002, 0.002, 0.02, 0.7):
        sketch.observe(value)
    return registry.snapshot().as_dict()


class TestPrometheusText:
    def test_counters_become_total_with_type_line(self):
        text = prometheus_text(_snapshot())
        assert "# TYPE repro_executor_items counter" in text
        assert "repro_executor_items_total 42" in text

    def test_labels_carry_over(self):
        text = prometheus_text(_snapshot())
        assert 'repro_epm_patterns_total{dimension="mu"} 7' in text
        assert 'repro_executor_jobs{backend="thread"} 4' in text

    def test_sketch_is_a_summary_without_buckets(self):
        lines = prometheus_text(_snapshot()).splitlines()
        assert "# TYPE repro_executor_chunk_seconds summary" in lines
        assert not [line for line in lines if "_bucket{" in line]
        assert "repro_executor_chunk_seconds_count 4" in lines
        sum_line = [line for line in lines if line.startswith("repro_executor_chunk_seconds_sum ")]
        assert len(sum_line) == 1
        assert float(sum_line[0].rsplit(" ", 1)[1]) == pytest.approx(0.724)

    def test_output_ends_with_newline_and_is_deterministic(self):
        assert prometheus_text(_snapshot()).endswith("\n")
        assert prometheus_text(_snapshot()) == prometheus_text(_snapshot())

    def test_accepts_full_manifest_payload(self):
        payload = {"metrics": _snapshot(), "span_tree": {"name": "scenario"}}
        assert "repro_executor_items_total 42" in prometheus_text(payload)

    def test_empty_sketch_renders_count_and_sum_only(self):
        registry = MetricsRegistry()
        registry.sketch("executor.chunk_seconds")  # registered, never observed
        lines = prometheus_text(registry.snapshot().as_dict()).splitlines()
        assert not [line for line in lines if 'quantile="' in line]
        assert "repro_executor_chunk_seconds_count 0" in lines
        assert "repro_executor_chunk_seconds_sum 0.0" in lines

    def test_window_series_section_rides_along(self):
        payload = {
            "metrics": _snapshot(),
            "windows": {"series": {"events": [3.0, 7.0]}},
        }
        text = prometheus_text(payload)
        assert "# TYPE repro_window_series gauge" in text
        assert 'repro_window_series{series="events",window="0"} 3' in text
        assert 'repro_window_series{series="events",window="1"} 7' in text
        samples = [s for s in jsonl_samples(payload) if s["name"] == "window.series"]
        assert [s["labels"]["window"] for s in samples] == ["0", "1"]


class TestOpenMetricsText:
    def test_is_the_prometheus_exposition_plus_unit_metadata_and_eof(self):
        snapshot = _snapshot()
        text = openmetrics_text(snapshot)
        # Same samples as the Prometheus exposition: only UNIT metadata
        # lines and the EOF terminator are OpenMetrics-specific.
        prometheus_lines = prometheus_text(snapshot).splitlines()
        extra = [
            line
            for line in text.splitlines()
            if line not in prometheus_lines
        ]
        assert extra == ["# UNIT repro_executor_chunk_seconds seconds", "# EOF"]
        assert text.endswith("\n# EOF\n")

    def test_unit_line_for_catalogued_seconds_metric(self):
        lines = openmetrics_text(_snapshot()).splitlines()
        unit = lines.index("# UNIT repro_executor_chunk_seconds seconds")
        # UNIT must sit inside its family block, right after TYPE.
        assert lines[unit - 1] == "# TYPE repro_executor_chunk_seconds summary"

    def test_no_unit_line_for_unitless_or_uncatalogued_metrics(self):
        lines = openmetrics_text(_snapshot()).splitlines()
        units = [line for line in lines if line.startswith("# UNIT")]
        # executor.items (a count) and epm.patterns (uncatalogued name in
        # this synthetic snapshot) must not invent units.
        assert units == ["# UNIT repro_executor_chunk_seconds seconds"]

    def test_eof_terminator_is_always_last(self):
        # Including when window series (appended after the metric
        # families) ride along — the regression this test pins down.
        payload = {
            "metrics": _snapshot(),
            "windows": {"series": {"events": [3.0, 7.0]}},
        }
        lines = openmetrics_text(payload).splitlines()
        assert lines[-1] == "# EOF"
        assert lines.count("# EOF") == 1
        assert 'repro_window_series{series="events",window="1"} 7' in lines

    def test_prometheus_exposition_has_no_unit_lines(self):
        assert "# UNIT" not in prometheus_text(_snapshot())

    def test_counters_carry_the_required_total_suffix(self):
        assert "repro_executor_items_total 42" in openmetrics_text(_snapshot())

    def test_dispatches_through_export_payload(self):
        snapshot = _snapshot()
        assert export_payload(snapshot, "openmetrics") == openmetrics_text(snapshot)


class TestJsonlText:
    def test_every_line_parses_back(self):
        samples = [json.loads(line) for line in jsonl_text(_snapshot()).splitlines()]
        assert samples == list(jsonl_samples(_snapshot()))

    def test_samples_cover_all_instruments(self):
        samples = list(jsonl_samples(_snapshot()))
        by_type = {}
        for sample in samples:
            by_type.setdefault(sample["type"], []).append(sample)
        assert len(by_type["counter"]) == 2
        assert len(by_type["gauge"]) == 1
        assert len(by_type["sketch"]) == 1
        sketch = by_type["sketch"][0]
        assert sketch["name"] == "executor.chunk_seconds"
        assert sketch["count"] == 4

    def test_labels_are_structured_not_rendered(self):
        samples = list(jsonl_samples(_snapshot()))
        labelled = [s for s in samples if s["name"] == "epm.patterns"]
        assert labelled[0]["labels"] == {"dimension": "mu"}


class TestExportPayload:
    def test_dispatch_matches_direct_calls(self):
        snapshot = _snapshot()
        assert export_payload(snapshot, "prometheus") == prometheus_text(snapshot)
        assert export_payload(snapshot, "jsonl") == jsonl_text(snapshot)

    def test_chrome_needs_a_span_tree(self):
        with pytest.raises(ValidationError):
            export_payload(_snapshot(), "chrome")

    def test_chrome_export_from_manifest_payload(self):
        payload = {
            "metrics": _snapshot(),
            "span_tree": {
                "name": "scenario",
                "seconds": 1.0,
                "children": [{"name": "observe", "seconds": 0.4, "children": []}],
            },
        }
        trace = json.loads(export_payload(payload, "chrome"))
        names = {entry.get("name") for entry in trace.get("traceEvents", trace)
                 if isinstance(entry, dict)}
        assert "observe" in names

    def test_unknown_format_rejected(self):
        with pytest.raises(ValidationError):
            export_payload(_snapshot(), "influx")

    def test_format_tuple_is_the_cli_contract(self):
        assert EXPORT_FORMATS == ("prometheus", "openmetrics", "jsonl", "chrome")


def _sketchy_snapshot():
    registry = MetricsRegistry()
    sketch = registry.sketch("executor.chunk_seconds")
    for value in (1.0, 2.0, 4.0, 8.0):
        sketch.observe(value)
    registry.watermark("worker.peak_rss_kb").update(51200)
    return registry.snapshot().as_dict()


class TestLabelEscaping:
    def _labelled(self, value):
        registry = MetricsRegistry()
        registry.counter("epm.patterns", dimension=value).inc(1)
        return prometheus_text(registry.snapshot().as_dict())

    def test_backslashes_escaped(self):
        assert 'dimension="a\\\\b"' in self._labelled("a\\b")

    def test_quotes_escaped(self):
        assert 'dimension="say \\"hi\\""' in self._labelled('say "hi"')

    def test_newlines_escaped(self):
        text = self._labelled("two\nlines")
        assert 'dimension="two\\nlines"' in text
        # the exposition itself must stay one sample per line
        sample_lines = [l for l in text.splitlines() if not l.startswith("#")]
        assert len(sample_lines) == 1

    def test_plain_values_untouched(self):
        assert 'dimension="mu"' in self._labelled("mu")


class TestSketchExposition:
    def test_sketch_renders_as_summary_family(self):
        text = prometheus_text(_sketchy_snapshot())
        assert "# TYPE repro_executor_chunk_seconds summary" in text
        assert 'repro_executor_chunk_seconds{quantile="0.5"}' in text
        assert "repro_executor_chunk_seconds_sum 15" in text
        assert "repro_executor_chunk_seconds_count 4" in text

    def test_watermark_renders_as_gauge(self):
        text = prometheus_text(_sketchy_snapshot())
        assert "# TYPE repro_worker_peak_rss_kb gauge" in text
        assert "repro_worker_peak_rss_kb 51200" in text

    def test_openmetrics_keeps_eof_last(self):
        text = openmetrics_text(_sketchy_snapshot())
        assert text.endswith("\n# EOF\n")

    def test_jsonl_carries_sketch_quantiles_and_watermarks(self):
        samples = list(jsonl_samples(_sketchy_snapshot()))
        by_type = {}
        for sample in samples:
            by_type.setdefault(sample["type"], []).append(sample)
        sketch = by_type["sketch"][0]
        assert sketch["name"] == "executor.chunk_seconds"
        assert sketch["count"] == 4
        assert set(sketch["quantiles"]) == {"0.5", "0.9", "0.99"}
        watermark = by_type["watermark"][0]
        assert watermark["name"] == "worker.peak_rss_kb"
        assert watermark["value"] == 51200


class TestBareSnapshotDetection:
    """A payload without a ``metrics`` key is a bare snapshot, whatever
    sections it carries — a sketches- or watermarks-only snapshot must
    not be mistaken for a manifest and exported as empty."""

    def _sketches_only(self):
        sketch = MetricsRegistry().sketch("executor.chunk_seconds")
        for value in (1.0, 2.0, 4.0):
            sketch.observe(value)
        return {"schema": 3, "sketches": {"executor.chunk_seconds": sketch.as_dict()}}

    def _watermarks_only(self):
        return {"schema": 3, "watermarks": {"worker.peak_rss_kb": 51200.0}}

    @pytest.mark.parametrize("fmt", ["prometheus", "openmetrics"])
    def test_sketches_only_snapshot_exports_its_summary(self, fmt):
        text = export_payload(self._sketches_only(), fmt)
        assert "# TYPE repro_executor_chunk_seconds summary" in text
        assert "repro_executor_chunk_seconds_count 3" in text

    @pytest.mark.parametrize("fmt", ["prometheus", "openmetrics"])
    def test_watermarks_only_snapshot_exports_its_gauge(self, fmt):
        text = export_payload(self._watermarks_only(), fmt)
        assert "repro_worker_peak_rss_kb 51200" in text

    def test_jsonl_of_sketches_and_watermarks_only_snapshots(self):
        sketch_samples = list(jsonl_samples(self._sketches_only()))
        assert [(s["type"], s["count"]) for s in sketch_samples] == [("sketch", 3)]
        mark_samples = list(jsonl_samples(self._watermarks_only()))
        assert [(s["type"], s["value"]) for s in mark_samples] == [("watermark", 51200.0)]

    def test_legacy_twin_exports_under_the_plain_name(self):
        sketch = self._sketches_only()["sketches"]["executor.chunk_seconds"]
        histogram = {"buckets": {"1.0": 1, "+inf": 2}, "count": 3, "sum": 7.0}
        payload = {
            "schema": 2,
            "histograms": {"executor.chunk_seconds": histogram},
            "sketches": {"executor.chunk_seconds_sketch": sketch},
        }
        text = openmetrics_text(payload)
        assert "# TYPE repro_executor_chunk_seconds summary" in text
        assert "_bucket{" not in text and "_sketch" not in text
