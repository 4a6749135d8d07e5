"""Tests for the observation-window time grid."""

import pytest

from repro.util.timegrid import (
    PAPER_WINDOW,
    WEEK_SECONDS,
    TimeGrid,
)
from repro.util.validation import ValidationError


class TestTimeGrid:
    def test_rejects_empty_window(self):
        with pytest.raises(ValidationError):
            TimeGrid(5, 5)

    def test_duration(self):
        assert TimeGrid(0, 3 * WEEK_SECONDS).duration == 3 * WEEK_SECONDS

    def test_n_weeks_exact(self):
        assert TimeGrid(0, 4 * WEEK_SECONDS).n_weeks == 4

    def test_n_weeks_partial_rounds_up(self):
        assert TimeGrid(0, 4 * WEEK_SECONDS + 1).n_weeks == 5

    def test_contains(self):
        grid = TimeGrid(10, 20)
        assert grid.contains(10)
        assert grid.contains(19)
        assert not grid.contains(20)
        assert not grid.contains(9)

    def test_clamp(self):
        grid = TimeGrid(10, 20)
        assert grid.clamp(5) == 10
        assert grid.clamp(25) == 19
        assert grid.clamp(15) == 15

    def test_week_of(self):
        grid = TimeGrid(0, 10 * WEEK_SECONDS)
        assert grid.week_of(0) == 0
        assert grid.week_of(WEEK_SECONDS + 5) == 1

    def test_week_of_outside_raises(self):
        grid = TimeGrid(0, WEEK_SECONDS)
        with pytest.raises(ValidationError):
            grid.week_of(WEEK_SECONDS)

    def test_week_start(self):
        grid = TimeGrid(100, 100 + 5 * WEEK_SECONDS)
        assert grid.week_start(2) == 100 + 2 * WEEK_SECONDS

    def test_week_start_out_of_range(self):
        grid = TimeGrid(0, WEEK_SECONDS)
        with pytest.raises(ValidationError):
            grid.week_start(1)

    def test_subwindow(self):
        grid = TimeGrid(0, 10 * WEEK_SECONDS)
        sub = grid.subwindow(2, 5)
        assert sub.start == 2 * WEEK_SECONDS
        assert sub.end == 5 * WEEK_SECONDS

    def test_subwindow_empty_raises(self):
        grid = TimeGrid(0, 10 * WEEK_SECONDS)
        with pytest.raises(ValidationError):
            grid.subwindow(3, 3)

    def test_paper_window_is_74_weeks(self):
        assert PAPER_WINDOW.n_weeks == 74
