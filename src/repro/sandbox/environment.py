"""The execution environment: the world outside the sandbox.

A sample's observable behaviour depends on external conditions at the
time it is analysed: whether a DNS name still resolves, whether the C&C
server is up, which components a distribution site serves.  The paper's
§4.2 traces several clustering anomalies to exactly these conditions
(the ``iliketay.cn`` case).  :class:`Environment` makes them explicit
and time-dependent so the reproduction can generate — and then heal —
the same anomalies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.validation import require


@dataclass(frozen=True)
class Window:
    """A half-open validity interval [start, end); ``end=None`` = forever."""

    start: int = 0
    end: int | None = None

    def __post_init__(self) -> None:
        if self.end is not None:
            require(self.end > self.start, "Window end must be after start")

    def contains(self, time: int) -> bool:
        """Whether ``time`` falls inside the window."""
        if time < self.start:
            return False
        return self.end is None or time < self.end


@dataclass
class Environment:
    """Time-varying external world state.

    Unlisted DNS names never resolve; unlisted C&C servers and components
    are considered up forever (the common case), so scenarios only need
    to declare the *interesting* outages.
    """

    dns: dict[str, list[Window]] = field(default_factory=dict)
    cnc_liveness: dict[str, list[Window]] = field(default_factory=dict)
    component_windows: dict[tuple[str, str], list[Window]] = field(default_factory=dict)

    def add_dns(self, domain: str, *windows: Window) -> None:
        """Declare when ``domain`` resolves."""
        self.dns.setdefault(domain, []).extend(windows or [Window()])

    def set_component_window(self, domain: str, path: str, *windows: Window) -> None:
        """Declare when a downloadable component is actually served."""
        self.component_windows.setdefault((domain, path), []).extend(
            windows or [Window()]
        )

    def resolves(self, domain: str, time: int) -> bool:
        """Whether ``domain`` resolves at ``time``."""
        windows = self.dns.get(domain)
        if windows is None:
            return False
        return any(w.contains(time) for w in windows)

    def cnc_live(self, server: str, time: int) -> bool:
        """Whether C&C ``server`` is reachable at ``time``."""
        windows = self.cnc_liveness.get(server)
        if windows is None:
            return True
        return any(w.contains(time) for w in windows)

    def component_available(self, domain: str, path: str, time: int) -> bool:
        """Whether the component at ``domain``/``path`` is served at ``time``."""
        windows = self.component_windows.get((domain, path))
        if windows is None:
            return True
        return any(w.contains(time) for w in windows)
