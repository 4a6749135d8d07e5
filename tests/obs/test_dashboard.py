"""The sparkline dashboard: static render, accumulator, follow mode."""

import io

import pytest

from repro.obs.dashboard import (
    SPARK_CHARS,
    DashboardAccumulator,
    follow_dashboard,
    render_dashboard,
    sparkline,
)
from repro.obs.events import PipelineEvent
from repro.obs.windows import WINDOW_SERIES
from repro.util.validation import ValidationError


class TestSparkline:
    def test_empty_series_renders_empty(self):
        assert sparkline([]) == ""

    def test_flat_series_renders_all_low(self):
        assert sparkline([5.0, 5.0, 5.0]) == SPARK_CHARS[0] * 3

    def test_extremes_map_to_the_ramp_ends(self):
        cells = sparkline([0.0, 10.0, 5.0])
        assert cells[0] == SPARK_CHARS[0]
        assert cells[1] == SPARK_CHARS[-1]
        assert cells[2] not in (SPARK_CHARS[0], SPARK_CHARS[-1])

    def test_one_cell_per_value(self):
        assert len(sparkline([1.0, 2.0, 3.0, 4.0])) == 4


def _payload() -> dict:
    series = {name: [1.0, 2.0, 3.0] for name in WINDOW_SERIES}
    series["agreement"] = [1.0, 0.5, 0.75]
    return {
        "schema": 1,
        "fingerprint": "ab" * 32,
        "seed": 2010,
        "window_weeks": 4,
        "n_windows": 3,
        "series": series,
        "crossview": {"joint_samples": 40, "m_clusters": 9},
    }


class TestRenderDashboard:
    def test_needs_a_series_section(self):
        with pytest.raises(ValidationError):
            render_dashboard({"fingerprint": "ab" * 32})

    def test_header_and_one_row_per_series(self):
        text = render_dashboard(_payload())
        head = text.splitlines()[0]
        assert "fingerprint abababababababab" in head
        assert "seed 2010" in head and "3 windows x 4w" in head
        for name in WINDOW_SERIES:
            assert f"  {name}" in text
        assert "last=0.75 max=1" in text  # the agreement row

    def test_crossview_line_is_sorted(self):
        text = render_dashboard(_payload())
        assert "  crossview: joint_samples=40 m_clusters=9" in text

    def test_health_section_appended_when_given(self):
        health = {
            "summary": {"info": 0, "warning": 1, "critical": 0},
            "findings": [
                {
                    "rule": "crossview-agreement-floor",
                    "severity": "warning",
                    "value": 0.1,
                    "window": 1,
                }
            ],
        }
        text = render_dashboard(_payload(), health)
        assert "  health: critical=0 info=0 warning=1" in text
        assert "WARNING  crossview-agreement-floor [window 1] = 0.1" in text

    def test_render_is_deterministic(self):
        assert render_dashboard(_payload()) == render_dashboard(_payload())


def _rollup(window: int, **extra) -> PipelineEvent:
    fields = {
        "window": window,
        "fingerprint": "ab" * 32,
        "seed": 7,
        "window_weeks": 4,
        "n_windows": 2,
        "events": 10.0 * (window + 1),
        "agreement": 0.9,
    }
    fields.update(extra)
    return PipelineEvent(seq=window, t=float(window), kind="window.rollup", fields=fields)


class TestDashboardAccumulator:
    def test_ignores_other_kinds(self):
        accumulator = DashboardAccumulator()
        other = PipelineEvent(seq=0, t=0.0, kind="run.start", fields={"seed": 7})
        assert accumulator.feed(other) is False
        assert accumulator.payload()["series"] == {}

    def test_rebuilds_the_report_layout(self):
        accumulator = DashboardAccumulator()
        assert accumulator.feed(_rollup(0)) is True
        assert accumulator.feed(_rollup(1)) is True
        payload = accumulator.payload()
        assert payload["fingerprint"] == "ab" * 32
        assert payload["seed"] == 7 and payload["n_windows"] == 2
        assert payload["series"]["events"] == [10.0, 20.0]
        assert "window" not in payload["series"]
        render_dashboard(payload)  # renders without error


class TestFollowDashboard:
    def test_draws_one_frame_per_rollup(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(
            "".join(_rollup(window).to_json() + "\n" for window in range(3))
        )
        stream = io.StringIO()
        frames = follow_dashboard(path, stream, poll_seconds=0.01, stop=lambda: True)
        assert frames == 3
        text = stream.getvalue()
        assert text.count("landscape dashboard") == 3
        # the final frame carries all three accumulated windows
        assert "last=30 max=30" in text


@pytest.fixture(scope="module")
def smoke_events(tmp_path_factory):
    """The event log of the CI smoke run (seed 7, 8 weeks, scale 0.05)."""
    from repro.cli import main

    path = tmp_path_factory.mktemp("smoke") / "events.jsonl"
    argv = ["run", "--scale", "0.05", "--weeks", "8", "--seed", "7"]
    assert main([*argv, "--events", str(path)]) == 0
    return path


class TestEventLogDashboard:
    def test_smoke_event_log_renders_both_sections(self, smoke_events, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "live.txt"
        assert main(["obs", "dashboard", str(smoke_events), "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        landscape, machine = text.split("\nmachine · ", 1)
        assert landscape.startswith("landscape dashboard · fingerprint ")
        for name in WINDOW_SERIES:
            assert f"  {name}" in landscape
        assert machine.startswith("seed 7 · 8w x0.05 · finished")
        assert "drops" not in machine
        capsys.readouterr()
        assert main(["obs", "dashboard", str(smoke_events)]) == 0
        assert capsys.readouterr().out == text

    def test_follow_draws_one_frame_per_redraw_kind_event(self, smoke_events):
        from repro.obs.dashboard import REDRAW_KINDS
        from repro.obs.events import iter_events

        kinds = [event.kind for event in iter_events(smoke_events)]
        expected = sum(kind in REDRAW_KINDS for kind in kinds)
        assert {"window.rollup", "stage.finish", "run.finish"} <= set(kinds)
        stream = io.StringIO()
        frames = follow_dashboard(
            smoke_events, stream, poll_seconds=0.01, stop=lambda: True
        )
        assert frames == expected
        text = stream.getvalue()
        assert text.count("landscape dashboard") == expected
        assert text.count("\nmachine · ") == expected
