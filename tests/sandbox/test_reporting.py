"""Tests for the activity timeline rendering."""

from repro.sandbox.reporting import render_timeline


class TestRenderTimeline:
    def test_empty(self):
        assert render_timeline({}, n_weeks=10) == "(no activity)"

    def test_length(self):
        strip = render_timeline({0: 1}, n_weeks=10)
        assert len(strip) == 10

    def test_silence_and_peak(self):
        strip = render_timeline({2: 10, 5: 1}, n_weeks=8)
        assert strip[2] == "#"
        assert strip[5] == ":"
        assert strip[0] == "."

    def test_width_cap(self):
        strip = render_timeline({0: 1}, n_weeks=200, width=50)
        assert len(strip) == 50
