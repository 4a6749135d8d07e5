"""Text rendering of activity over time.

:func:`render_timeline` draws a cluster's weekly activity as one
character per week, the text stand-in for Figure 5's timeline strips.
"""

from __future__ import annotations


def render_timeline(timeline: dict[int, int], *, n_weeks: int, width: int = 74) -> str:
    """ASCII activity timeline (one character per week bucket).

    The text stand-in for the timeline strips of Figure 5: ``.`` silent,
    ``▂▅█``-style intensity encoded as ``.:|#`` by quartile of the
    cluster's own peak.
    """
    if not timeline:
        return "(no activity)"
    peak = max(timeline.values())
    cells = []
    for week in range(min(n_weeks, width)):
        count = timeline.get(week, 0)
        if count == 0:
            cells.append(".")
        elif count <= peak / 4:
            cells.append(":")
        elif count <= peak / 2:
            cells.append("|")
        else:
            cells.append("#")
    return "".join(cells)
