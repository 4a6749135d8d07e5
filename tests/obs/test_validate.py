"""Validator coverage for the sketch payload and the manifest layout.

A sketch whose bins lost observations must fail ``repro obs validate``
loudly; a stored schema-6 manifest, whose drop accounting section and
``events.dropped`` counters the current layout no longer has, must
still validate.
"""

import json
import re
from pathlib import Path

import pytest

from repro.obs.manifest import MANIFEST_SCHEMA
from repro.obs.metrics import MetricsRegistry
from repro.obs.sketch import QuantileSketch
from repro.obs.validate import METRIC_CATALOGUE, validate_manifest, validate_metrics

ARCHITECTURE = Path(__file__).resolve().parents[2] / "docs" / "ARCHITECTURE.md"
REFERENCE = Path(__file__).resolve().parents[2] / "results" / "runs" / "reference.json"


def _metrics_with_sketch(**sketch_overrides):
    registry = MetricsRegistry()
    sketch = registry.sketch("events.interarrival")
    for value in (0.5, 1.0, 2.0):
        sketch.observe(value)
    payload = registry.snapshot().as_dict()
    payload["sketches"]["events.interarrival"].update(sketch_overrides)
    return payload


def _manifest_payload(counters):
    """A minimal but structurally valid current-schema manifest."""
    return {
        "schema": MANIFEST_SCHEMA,
        "fingerprint": "f" * 64,
        "seed": 7,
        "library_version": "0.0.0",
        "created_at": "2026-08-09T00:00:00Z",
        "golden_deviations": [],
        "config": {},
        "span_tree": {"name": "scenario", "children": []},
        "metrics": {
            "schema": 3,
            "counters": counters,
            "gauges": {},
            "sketches": {},
            "watermarks": {},
        },
        "artifact_digests": {"dataset": "a" * 64},
        "event_summary": {},
        "stage_fingerprints": {},
        "health_summary": {},
    }


class TestSketchPayloadValidation:
    def test_real_sketch_payload_passes(self):
        assert validate_metrics(_metrics_with_sketch()) == []

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, "loose", None])
    def test_alpha_outside_unit_interval_fails(self, alpha):
        errors = validate_metrics(_metrics_with_sketch(alpha=alpha))
        assert any("alpha" in error for error in errors)

    @pytest.mark.parametrize("max_bins", [1, 0, -3, 2.5, "many"])
    def test_max_bins_below_two_fails(self, max_bins):
        errors = validate_metrics(_metrics_with_sketch(max_bins=max_bins))
        assert any("max_bins" in error for error in errors)

    def test_non_integer_bin_index_fails(self):
        errors = validate_metrics(_metrics_with_sketch(bins={"high": 3}, count=3))
        assert any("not an int" in error for error in errors)

    @pytest.mark.parametrize("count", [0, -1, 1.5, "two"])
    def test_non_positive_bin_count_fails(self, count):
        errors = validate_metrics(_metrics_with_sketch(bins={"4": count}))
        assert any("positive integer" in error for error in errors)

    def test_bins_over_the_declared_cap_fails(self):
        bins = {str(index): 1 for index in range(5)}
        errors = validate_metrics(
            _metrics_with_sketch(max_bins=2, bins=bins, count=5)
        )
        assert any("over its max_bins=2 cap" in error for error in errors)

    def test_lost_observations_fail_the_count_reconciliation(self):
        # 3 observed, but zeros + binned only explains 2
        errors = validate_metrics(_metrics_with_sketch(zeros=0, bins={"4": 2}))
        assert any("observations lost" in error for error in errors)

    def test_non_mapping_payload_fails(self):
        payload = _metrics_with_sketch()
        payload["sketches"]["events.interarrival"] = [1, 2, 3]
        errors = validate_metrics(payload)
        assert any("must be a mapping" in error for error in errors)

    def test_serialized_round_trip_stays_valid(self):
        sketch = QuantileSketch()
        for value in range(1, 50):
            sketch.observe(float(value))
        restored = QuantileSketch.from_dict(sketch.as_dict())
        payload = _metrics_with_sketch()
        payload["sketches"]["events.interarrival"] = restored.as_dict()
        assert validate_metrics(payload) == []


class TestManifestLayout:
    def test_current_schema_has_no_drop_section(self):
        payload = _manifest_payload({"cache.hit": 1})
        assert payload["schema"] == 7
        assert validate_manifest(payload) == []

    def test_stored_schema_6_drop_section_is_ignored(self):
        payload = _manifest_payload({})
        payload["schema"] = 6
        payload["event_drops"] = {"ring": {"cache.hit": 5}}
        assert validate_manifest(payload) == []


class TestRetiredMetrics:
    """A stored schema-6 run that dropped events carries the retired
    ``events.dropped`` counter; it stays valid, a schema-7 run does not."""

    DROPPED = "events.dropped{kind=stage.progress,transport=ring}"

    @pytest.fixture
    def reference(self):
        return json.loads(REFERENCE.read_text(encoding="utf-8"))

    def test_stored_schema_6_reference_with_a_drop_counter_validates(self, reference):
        assert reference["schema"] == 6
        reference["metrics"]["counters"][self.DROPPED] = 3
        assert validate_manifest(reference) == []

    def test_current_schema_rejects_the_retired_counter(self):
        payload = _manifest_payload({self.DROPPED: 3})
        assert payload["schema"] == 7
        errors = validate_manifest(payload)
        assert any("undocumented metric 'events.dropped'" in e for e in errors)

    def test_bare_snapshot_rejects_the_retired_counter(self):
        registry = MetricsRegistry()
        registry.counter("events.dropped", kind="x", transport="ring").inc()
        assert validate_metrics(registry.snapshot().as_dict()) != []


def _documented_catalogue() -> dict[str, str]:
    """name -> kind from the ``### Metric catalogue`` table of the docs.

    A row may name several metrics (`` `a` / `b` ``); each gets the
    row's kind.
    """
    text = ARCHITECTURE.read_text(encoding="utf-8")
    section = text.split("### Metric catalogue", 1)[1].split("\n### ", 1)[0]
    documented: dict[str, str] = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if not line.startswith("| `") or len(cells) < 2:
            continue
        for name in re.findall(r"`([^`]+)`", cells[0]):
            assert name not in documented, f"{name} documented twice"
            documented[name] = cells[1]
    return documented


class TestCatalogueDocs:
    def test_docs_table_matches_the_metric_catalogue(self):
        assert _documented_catalogue() == METRIC_CATALOGUE

    def test_every_distribution_is_a_sketch(self):
        assert set(METRIC_CATALOGUE.values()) == {"counter", "gauge", "sketch", "watermark"}
        assert not [name for name in METRIC_CATALOGUE if name.endswith("_sketch")]
