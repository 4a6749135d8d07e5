"""Telemetry exporters: the OpenMetrics exposition, Chrome traces, the flame view."""

import json

import pytest

from repro.obs.export import (
    EXPORT_FORMATS,
    export_payload,
    openmetrics_text,
)
from repro.obs.metrics import MetricsRegistry
from repro.util.validation import ValidationError


def _snapshot():
    # Uncatalogued names: the exporters render whatever a snapshot holds.
    registry = MetricsRegistry()
    registry.counter("executor.items").inc(42)
    registry.counter("epm.patterns", dimension="mu").inc(7)
    registry.gauge("executor.jobs", backend="thread").set(4)
    sketch = registry.sketch("executor.chunk_seconds")
    for value in (0.002, 0.002, 0.02, 0.7):
        sketch.observe(value)
    return registry.snapshot().as_dict()


class TestPrometheusText:
    """The exposition as a Prometheus text scraper reads it: the
    OpenMetrics text up to its ``# EOF`` line."""

    def test_counters_become_total_with_type_line(self):
        text = openmetrics_text(_snapshot())
        assert "# TYPE repro_executor_items counter" in text
        assert "repro_executor_items_total 42" in text

    def test_labels_carry_over(self):
        text = openmetrics_text(_snapshot())
        assert 'repro_epm_patterns_total{dimension="mu"} 7' in text
        assert 'repro_executor_jobs{backend="thread"} 4' in text

    def test_sketch_is_a_summary_without_buckets(self):
        lines = openmetrics_text(_snapshot()).splitlines()
        assert "# TYPE repro_executor_chunk_seconds summary" in lines
        assert not [line for line in lines if "_bucket{" in line]
        assert "repro_executor_chunk_seconds_count 4" in lines
        sum_line = [line for line in lines if line.startswith("repro_executor_chunk_seconds_sum ")]
        assert len(sum_line) == 1
        assert float(sum_line[0].rsplit(" ", 1)[1]) == pytest.approx(0.724)

    def test_output_ends_with_newline_and_is_deterministic(self):
        assert openmetrics_text(_snapshot()).endswith("\n")
        assert openmetrics_text(_snapshot()) == openmetrics_text(_snapshot())

    def test_accepts_full_manifest_payload(self):
        payload = {"metrics": _snapshot(), "span_tree": {"name": "scenario"}}
        assert "repro_executor_items_total 42" in openmetrics_text(payload)

    def test_empty_sketch_renders_count_and_sum_only(self):
        registry = MetricsRegistry()
        registry.sketch("executor.chunk_seconds")  # registered, never observed
        lines = openmetrics_text(registry.snapshot().as_dict()).splitlines()
        assert not [line for line in lines if 'quantile="' in line]
        assert "repro_executor_chunk_seconds_count 0" in lines
        assert "repro_executor_chunk_seconds_sum 0.0" in lines

    def test_window_series_section_rides_along(self):
        payload = {
            "metrics": _snapshot(),
            "windows": {"series": {"events": [3.0, 7.0]}},
        }
        text = openmetrics_text(payload)
        assert "# TYPE repro_window_series gauge" in text
        samples = [
            line for line in text.splitlines() if line.startswith("repro_window_series{")
        ]
        assert samples == [
            'repro_window_series{series="events",window="0"} 3',
            'repro_window_series{series="events",window="1"} 7',
        ]


class TestOpenMetricsText:
    def test_no_unit_line_for_unitless_or_uncatalogued_metrics(self):
        # No catalogued metric declares a unit, and a name ending in
        # _seconds does not invent one.
        lines = openmetrics_text(_snapshot()).splitlines()
        assert not [line for line in lines if line.startswith("# UNIT")]
        assert lines.count("# EOF") == 1

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
        # Up to its # EOF line the exposition is Prometheus text: the
        # only metadata lines are # TYPE lines.
        lines = openmetrics_text(_snapshot()).splitlines()
        assert lines[-1] == "# EOF"
        metadata = [line for line in lines[:-1] if line.startswith("#")]
        assert metadata and all(line.startswith("# TYPE ") for line in metadata)

    def test_one_family_per_instrument(self):
        types = [
            line.split()[-2:]
            for line in openmetrics_text(_snapshot()).splitlines()
            if line.startswith("# TYPE ")
        ]
        assert sorted(types) == [
            ["repro_epm_patterns", "counter"],
            ["repro_executor_chunk_seconds", "summary"],
            ["repro_executor_items", "counter"],
            ["repro_executor_jobs", "gauge"],
        ]

    def test_counters_carry_the_required_total_suffix(self):
        assert "repro_executor_items_total 42" in openmetrics_text(_snapshot())

    def test_dispatches_through_export_payload(self):
        snapshot = _snapshot()
        assert export_payload(snapshot, "openmetrics") == openmetrics_text(snapshot)


class TestExportPayload:
    def test_dispatch_matches_direct_calls(self):
        snapshot = _snapshot()
        assert export_payload(snapshot, "openmetrics") == openmetrics_text(snapshot)

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

    def test_flame_export_is_the_flame_view(self):
        from repro.obs.profile import flame_view

        tree = {
            "name": "scenario",
            "seconds": 1.0,
            "attributes": {"cpu_seconds": 0.9},
            "children": [{"name": "observe", "seconds": 0.4, "children": []}],
        }
        payload = {"metrics": _snapshot(), "span_tree": tree}
        assert export_payload(payload, "flame") == flame_view(tree) + "\n"
        with pytest.raises(ValidationError):
            export_payload(_snapshot(), "flame")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValidationError):
            export_payload(_snapshot(), "influx")

    def test_format_tuple_is_the_cli_contract(self):
        assert EXPORT_FORMATS == ("openmetrics", "chrome", "flame")


def _sketchy_snapshot():
    registry = MetricsRegistry()
    sketch = registry.sketch("executor.chunk_seconds")
    for value in (1.0, 2.0, 4.0, 8.0):
        sketch.observe(value)
    return registry.snapshot().as_dict()


class TestLabelEscaping:
    def _labelled(self, value):
        registry = MetricsRegistry()
        registry.counter("epm.patterns", dimension=value).inc(1)
        return openmetrics_text(registry.snapshot().as_dict())

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
        text = openmetrics_text(_sketchy_snapshot())
        assert "# TYPE repro_executor_chunk_seconds summary" in text
        assert 'repro_executor_chunk_seconds{quantile="0.5"}' in text
        assert "repro_executor_chunk_seconds_sum 15" in text
        assert "repro_executor_chunk_seconds_count 4" in text

    def test_openmetrics_keeps_eof_last(self):
        text = openmetrics_text(_sketchy_snapshot())
        assert text.endswith("\n# EOF\n")

    def test_openmetrics_carries_sketch_quantiles(self):
        lines = openmetrics_text(_sketchy_snapshot()).splitlines()
        quantiles = [
            line.split('"')[1] for line in lines if 'quantile="' in line
        ]
        assert quantiles == ["0.5", "0.9", "0.99"]
        assert all(
            line.startswith("repro_executor_chunk_seconds{")
            for line in lines
            if 'quantile="' in line
        )


class TestBareSnapshotDetection:
    """A payload without a ``metrics`` key is a bare snapshot, whatever
    sections it carries — a sketches-only snapshot must not be mistaken
    for a manifest and exported as empty."""

    def _sketches_only(self):
        sketch = MetricsRegistry().sketch("executor.chunk_seconds")
        for value in (1.0, 2.0, 4.0):
            sketch.observe(value)
        return {"schema": 3, "sketches": {"executor.chunk_seconds": sketch.as_dict()}}

    @pytest.mark.parametrize("fmt", ["openmetrics"])
    def test_sketches_only_snapshot_exports_its_summary(self, fmt):
        text = export_payload(self._sketches_only(), fmt)
        assert "# TYPE repro_executor_chunk_seconds summary" in text
        assert "repro_executor_chunk_seconds_count 3" in text

    def test_watermarks_only_snapshot_exports_no_family(self):
        # A stored schema-8 snapshot's empty watermarks section is no
        # instrument: it yields no sample.
        assert openmetrics_text({"schema": 3, "watermarks": {}}) == "# EOF\n"

    def test_stored_empty_high_water_section_exports_nothing(self):
        # Manifest schema 8 files written before the section was dropped
        # carry an empty "watermarks" section; it renders no family.
        payload = {**_snapshot(), "watermarks": {}}
        assert openmetrics_text(payload) == openmetrics_text(_snapshot())
