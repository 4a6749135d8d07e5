"""Time handling for the observation period.

The paper analyses SGNET data from January 2008 to May 2009 and reports
activity in *weeks of activity* and day-resolution timelines (Figure 5).
Timestamps in the reproduction are integer seconds from an epoch, and
:class:`TimeGrid` converts between seconds, days and week buckets for a
configured observation window.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import require

DAY_SECONDS = 86_400
WEEK_SECONDS = 7 * DAY_SECONDS


@dataclass(frozen=True)
class TimeGrid:
    """An observation window [start, end) with day/week bucketing.

    The default window matches the paper: 74 weeks spanning January 2008
    to May 2009 (see :data:`PAPER_WINDOW`).
    """

    start: int
    end: int

    def __post_init__(self) -> None:
        require(self.end > self.start, "TimeGrid end must be after start")

    @property
    def duration(self) -> int:
        """Window length in seconds."""
        return self.end - self.start

    @property
    def n_weeks(self) -> int:
        """Number of (possibly partial) week buckets in the window."""
        return -(-self.duration // WEEK_SECONDS)

    def contains(self, timestamp: int) -> bool:
        """Whether ``timestamp`` lies in the window."""
        return self.start <= timestamp < self.end

    def clamp(self, timestamp: int) -> int:
        """Clamp ``timestamp`` into the window (end-exclusive)."""
        return max(self.start, min(self.end - 1, timestamp))

    def week_of(self, timestamp: int) -> int:
        """Zero-based week bucket of ``timestamp``."""
        require(self.contains(timestamp), f"timestamp {timestamp} outside window")
        return (timestamp - self.start) // WEEK_SECONDS

    def week_start(self, week: int) -> int:
        """Timestamp of the first second of week bucket ``week``."""
        require(0 <= week < self.n_weeks, f"week {week} outside window")
        return self.start + week * WEEK_SECONDS

    def subwindow(self, start_week: int, end_week: int) -> "TimeGrid":
        """Return the window covering week buckets [start_week, end_week)."""
        require(end_week > start_week, "subwindow must span at least one week")
        return TimeGrid(
            self.week_start(start_week),
            min(self.end, self.start + end_week * WEEK_SECONDS),
        )


#: The paper's observation period: Jan 2008 - May 2009, 74 weeks.
PAPER_WINDOW = TimeGrid(0, 74 * WEEK_SECONDS)
