"""Validation of the samples/sec scaling-curve record and its CLI."""

import json

import pytest

from repro.experiments import scale_bench
from repro.experiments.perf_gate import check_scale_bench
from repro.experiments.scale_bench import (
    POINT_KEYS,
    SCALE_BENCH_SCHEMA,
    run_point,
    validate_record,
)


def _point(scale, **overrides):
    point = {
        "scale": scale,
        "events": 100,
        "samples_collected": 50,
        "samples_executed": 40,
        "build_seconds": 1.5,
        "observe_seconds": 0.5,
        "events_per_second": 66.7,
        "samples_per_second": 33.3,
        "max_rss_kb": 100_000,
    }
    point.update(overrides)
    return point


def _record(**overrides):
    record = {
        "schema": SCALE_BENCH_SCHEMA,
        "generated_at": "2026-01-01T00:00:00Z",
        "seed": 2010,
        "weeks": 24,
        "mode": "full",
        "backend": "serial",
        "jobs": 0,
        "points": [_point(s) for s in (0.25, 1.0, 4.0, 16.0)],
        "notes": "",
    }
    record.update(overrides)
    return record


class TestValidateRecord:
    def test_valid_record_passes(self):
        assert validate_record(_record()) == []
        # Records written before the shard path was removed (the
        # committed BENCH_scale.json among them) carry ``"shards": 0``.
        assert validate_record(_record(shards=0)) == []

    def test_wrong_schema_rejected(self):
        errors = validate_record(_record(schema=99))
        assert any("schema" in e for e in errors)

    def test_short_curve_rejected(self):
        errors = validate_record(_record(points=[_point(1.0)] * 3))
        assert any("4-point" in e for e in errors)

    def test_missing_points_rejected(self):
        errors = validate_record(_record(points=None))
        assert errors

    def test_non_monotonic_scales_rejected(self):
        points = [_point(s) for s in (0.25, 4.0, 1.0, 16.0)]
        errors = validate_record(_record(points=points))
        assert any("strictly" in e for e in errors)

    def test_non_numeric_point_key_rejected(self):
        points = [_point(s) for s in (0.25, 1.0, 4.0, 16.0)]
        points[2]["events_per_second"] = "fast"
        errors = validate_record(_record(points=points))
        assert any("events_per_second" in e for e in errors)

    def test_boolean_masquerading_as_number_rejected(self):
        points = [_point(s) for s in (0.25, 1.0, 4.0, 16.0)]
        points[0]["events"] = True
        errors = validate_record(_record(points=points))
        assert any("events" in e for e in errors)

    def test_zero_rates_rejected(self):
        points = [_point(s) for s in (0.25, 1.0, 4.0, 16.0)]
        points[1]["build_seconds"] = 0
        errors = validate_record(_record(points=points))
        assert any("build_seconds" in e for e in errors)

    def test_non_integer_seed_rejected(self):
        errors = validate_record(_record(seed="2010"))
        assert any("seed" in e for e in errors)


class TestPerfGateHook:
    def test_valid_file_passes(self, tmp_path, capsys):
        path = tmp_path / "BENCH_scale.json"
        path.write_text(json.dumps(_record()), encoding="utf-8")
        import sys

        assert check_scale_bench(path, sys.stdout) == []
        assert "samples/sec" in capsys.readouterr().out

    def test_missing_file_is_violation(self, tmp_path):
        import sys

        errors = check_scale_bench(tmp_path / "nope.json", sys.stdout)
        assert errors

    def test_malformed_record_is_violation(self, tmp_path):
        import sys

        path = tmp_path / "BENCH_scale.json"
        path.write_text(json.dumps(_record(points=[])), encoding="utf-8")
        assert check_scale_bench(path, sys.stdout)


class TestCli:
    def test_check_valid_record(self, tmp_path):
        path = tmp_path / "curve.json"
        path.write_text(json.dumps(_record()), encoding="utf-8")
        assert scale_bench.main(["--check", str(path)]) == 0

    def test_check_invalid_record(self, tmp_path, capsys):
        path = tmp_path / "curve.json"
        path.write_text(json.dumps(_record(schema=0)), encoding="utf-8")
        assert scale_bench.main(["--check", str(path)]) == 1
        assert "SCALE BENCH VIOLATION" in capsys.readouterr().err

    def test_check_missing_record(self, tmp_path):
        assert scale_bench.main(["--check", str(tmp_path / "absent.json")]) == 1


@pytest.mark.slow
class TestRunPoint:
    def test_point_shape(self):
        point = run_point(seed=7, scale=0.05, weeks=8)
        assert set(point) == set(POINT_KEYS)
        assert point["events"] > 0
        assert point["events_per_second"] > 0
        assert point["max_rss_kb"] > 0
