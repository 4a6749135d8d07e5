"""Validator coverage for the sketch payload and the manifest layout.

A sketch whose bins lost observations must fail ``repro obs validate``
loudly; a manifest of a layout older than schema 8 is one error that
names its schema and the cut-off, and a metric of a retired instrument
(``events.dropped``, ``executor.*``) is undocumented.
"""

import json
import re
from pathlib import Path

import pytest

from repro.obs.history import RunStore
from repro.obs.manifest import MANIFEST_SCHEMA, RunManifest
from repro.obs.metrics import MetricsRegistry
from repro.obs.sketch import QuantileSketch
from repro.util.validation import ValidationError
from repro.obs.validate import (
    METRIC_CATALOGUE,
    main,
    validate_manifest,
    validate_metrics,
    validate_run_store,
)
from repro.util.canonical import canonical_digest

ARCHITECTURE = Path(__file__).resolve().parents[2] / "docs" / "ARCHITECTURE.md"


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
        assert payload["schema"] == 8
        assert validate_manifest(payload) == []

    @pytest.mark.parametrize(
        "field",
        ["created_at", "golden_deviations", "stage_fingerprints", "health_summary"],
    )
    def test_every_field_is_required(self, field):
        payload = _manifest_payload({})
        del payload[field]
        (error,) = validate_manifest(payload)
        assert error.startswith(f"manifest: {field} must be ")


class TestRetiredMetrics:
    """The ``events.dropped`` counter of the retired bounded transports
    is undocumented in a manifest and in a bare snapshot."""

    DROPPED = "events.dropped{kind=stage.progress,transport=ring}"

    def test_current_schema_rejects_the_retired_counter(self):
        payload = _manifest_payload({self.DROPPED: 3})
        assert payload["schema"] == 8
        errors = validate_manifest(payload)
        assert any("undocumented metric 'events.dropped'" in e for e in errors)

    @pytest.mark.parametrize(
        "section",
        [("watermarks", {"worker.peak_rss_kb": 51200.0}), ("histograms", {"x": {}})],
        ids=["watermarks", "histograms"],
    )
    def test_a_retired_section_with_content_is_rejected(self, section):
        name, entries = section
        payload = {**MetricsRegistry().snapshot().as_dict(), name: entries}
        assert validate_metrics(payload) == [f"metrics: unknown section {name!r}"]
        assert validate_metrics({**payload, name: {}}) == []

    def test_bare_snapshot_rejects_the_retired_counter(self):
        registry = MetricsRegistry()
        registry.counter("events.dropped", kind="x", transport="ring").inc()
        assert validate_metrics(registry.snapshot().as_dict()) != []


class TestRetiredExecutorMetrics:
    """The chunk telemetry of the retired pool executors is undocumented."""

    @staticmethod
    def _payload(schema):
        payload = _manifest_payload({"executor.chunks": 14, "executor.items": 14})
        payload["schema"] = schema
        payload["metrics"]["gauges"]["executor.jobs{backend=serial}"] = 1
        return payload

    def test_schema_8_payload_rejects_them(self):
        errors = validate_manifest(self._payload(8))
        assert len(errors) == 3
        assert any("undocumented metric 'executor.chunks'" in e for e in errors)
        assert any("undocumented metric 'executor.jobs'" in e for e in errors)


CUT_OFF = (
    "manifest schema 7 is older than the oldest readable layout (8); "
    "re-run the scenario to regenerate it"
)


class TestManifestCutOff:
    """Schema 8 is the oldest readable manifest layout: an older file is
    one error naming its schema and the cut-off, never translated."""

    def _store_schema_7(self, root: Path) -> Path:
        payload = {**_manifest_payload({"executor.chunks": 14}), "schema": 7}
        path = root / payload["fingerprint"] / "0123456789abcdef.json"
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path

    def test_older_schema_is_one_error(self):
        payload = {**_manifest_payload({"executor.chunks": 14}), "schema": 7}
        assert validate_manifest(payload) == [CUT_OFF]
        with pytest.raises(ValidationError, match=re.escape(CUT_OFF)):
            RunManifest.from_dict(payload)

    @pytest.mark.parametrize("schema", [9, "8", None])
    def test_unknown_schema_names_the_readable_one(self, schema):
        (error,) = validate_manifest({**_manifest_payload({}), "schema": schema})
        assert error == f"manifest: schema is {schema!r}, expected 8"

    def test_validate_manifest_flag_prints_one_line(self, tmp_path, capsys):
        path = self._store_schema_7(tmp_path)
        assert main(["--manifest", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [CUT_OFF]

    def test_run_store_reports_the_file_once(self, tmp_path, capsys):
        path = self._store_schema_7(tmp_path)
        assert validate_run_store(tmp_path) == {str(path): [CUT_OFF]}
        assert main(["--runs", str(tmp_path)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"{path}: {CUT_OFF}"]

    def test_store_read_names_the_file(self, tmp_path):
        path = self._store_schema_7(tmp_path)
        with pytest.raises(ValidationError) as raised:
            RunStore(tmp_path).entries()
        assert str(raised.value) == f"{path}: {CUT_OFF}"

    def test_stored_empty_high_water_section_validates_and_keeps_its_address(
        self, tmp_path
    ):
        # Schema-8 files written before the metrics snapshot dropped its
        # (always empty) "watermarks" section read as they always did.
        payload = _manifest_payload({"cache.hit": 1})
        payload["metrics"]["watermarks"] = {}
        store = RunStore(tmp_path)
        run_id = store.add(RunManifest.from_dict(payload))
        assert run_id == canonical_digest(payload)[:16]
        assert store.load_payload(run_id) == payload
        assert validate_manifest(payload) == []
        assert validate_run_store(tmp_path) == {}


class TestUnreadableInputs:
    """An input file that cannot be read as a JSON object is one error
    line naming its flag and path, exit 1 — never a traceback."""

    @pytest.mark.parametrize("flag", ["--metrics", "--manifest", "--windows", "--model"])
    @pytest.mark.parametrize("fault", ["empty", "truncated"])
    def test_one_error_line(self, flag, fault, tmp_path, capsys):
        path = tmp_path / "input.json"
        path.write_text("" if fault == "empty" else '{"schema": 8, "seed"', encoding="utf-8")
        assert main([flag, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"{flag}: {path}: JSONDecodeError: ")

    @pytest.mark.parametrize("flag", ["--metrics", "--manifest", "--windows", "--model"])
    def test_missing_and_non_object_files(self, flag, tmp_path, capsys):
        listed = tmp_path / "list.json"
        listed.write_text("[1, 2]", encoding="utf-8")
        assert main([flag, str(tmp_path / "absent.json")]) == 1
        assert main([flag, str(listed)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == [
            f"{flag}: {tmp_path / 'absent.json'}: FileNotFoundError: "
            f"[Errno 2] No such file or directory: '{tmp_path / 'absent.json'}'",
            f"{flag}: {listed}: not a JSON object",
        ]

    def test_stored_run_that_is_not_an_object(self, tmp_path, capsys):
        store = RunStore(tmp_path)
        manifest = RunManifest.from_dict(_manifest_payload({}))
        path = store.path_for(manifest.fingerprint, store.add(manifest))
        path.write_text("[1, 2]", encoding="utf-8")
        assert validate_run_store(tmp_path) == {
            str(path): ["run file: not a JSON object"]
        }
        assert main(["--runs", str(tmp_path)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"{path}: run file: not a JSON object"]

    def test_stored_windows_sidecar_that_is_not_an_object(self, tmp_path, capsys):
        store = RunStore(tmp_path)
        manifest = RunManifest.from_dict(_manifest_payload({}))
        run_id = store.add(manifest)
        store.windows_path_for(manifest.fingerprint, run_id).write_text("[]", encoding="utf-8")
        path = store.path_for(manifest.fingerprint, run_id)
        assert validate_run_store(tmp_path) == {
            str(path): ["windows sidecar: not a JSON object"]
        }
        assert main(["--runs", str(tmp_path)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"{path}: windows sidecar: not a JSON object"]

    @pytest.mark.parametrize(
        "line",
        ["{not json", "[1]", '{"schema": 1, "seq": 0, "t": 0.0, "fields": {}}'],
        ids=["not-json", "not-an-object", "no-kind"],
    )
    def test_malformed_event_line(self, line, tmp_path, capsys):
        log = tmp_path / "events.jsonl"
        log.write_text(line + "\n", encoding="utf-8")
        assert main(["--events", str(log)]) == 1
        (error,) = capsys.readouterr().err.splitlines()
        assert error.startswith("events line 1: ")

    def test_missing_event_log(self, tmp_path, capsys):
        missing = tmp_path / "events.jsonl"
        assert main(["--events", str(missing)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"--events: {missing}: FileNotFoundError: ")


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
        assert set(METRIC_CATALOGUE.values()) == {"counter", "gauge", "sketch"}
        assert not [name for name in METRIC_CATALOGUE if name.endswith("_sketch")]
