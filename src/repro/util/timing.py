"""Wall-clock stage timings of the pipeline.

A :class:`StageTimings` record is the flat per-stage wall times carried
on every :class:`~repro.experiments.scenario.ScenarioRun` and printed by
``--timings``; :meth:`repro.obs.trace.TraceSpan.stage_timings` derives
it from the run's span tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class StageTiming:
    """One named stage and its wall-clock cost."""

    name: str
    seconds: float


@dataclass
class StageTimings:
    """Ordered per-stage wall times of one pipeline run."""

    stages: list[StageTiming] = field(default_factory=list)

    @property
    def total(self) -> float:
        """Sum of all recorded stage times."""
        return sum(stage.seconds for stage in self.stages)

    def seconds(self, name: str) -> float:
        """Total time recorded under ``name``.

        Raises :class:`KeyError` for a stage that was never recorded —
        a silent 0.0 made typos in stage names unobservable.  Use
        :meth:`get` when absence is an expected answer.
        """
        matched = [stage.seconds for stage in self.stages if stage.name == name]
        if not matched:
            raise KeyError(name)
        return sum(matched)

    def get(self, name: str, default: float = 0.0) -> float:
        """Total time recorded under ``name``, or ``default`` if absent."""
        try:
            return self.seconds(name)
        except KeyError:
            return default

    def as_dict(self) -> dict[str, float]:
        """Stage name -> seconds (repeated names accumulate)."""
        out: dict[str, float] = {}
        for stage in self.stages:
            out[stage.name] = out.get(stage.name, 0.0) + stage.seconds
        return out

    def render(self) -> str:
        """Human-readable timing table with per-stage shares."""
        if not self.stages:
            return "no stages recorded"
        total = self.total or 1.0
        width = max(len(stage.name) for stage in self.stages)
        lines = [
            f"{stage.name:<{width}}  {stage.seconds:9.3f} s  {stage.seconds / total:6.1%}"
            for stage in self.stages
        ]
        lines.append(f"{'total':<{width}}  {self.total:9.3f} s")
        return "\n".join(lines)
