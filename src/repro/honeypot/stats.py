"""Deployment observation statistics: the honeypot's own health view.

Aggregates what the deployment experienced during a run: per-sensor
autonomy (locally-handled vs proxied conversations), honeyfarm load,
FSM growth and shellcode-pipeline failure rates.
Rendered into the operational section of reports.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.honeypot.deployment import SGNetDeployment
from repro.util.stats import quantile
from repro.util.tables import TextTable


@dataclass(frozen=True)
class DeploymentStats:
    """Counters summarising one deployment's observation run."""

    n_sensors: int
    n_networks: int
    conversations: int
    handled_locally: int
    proxied: int
    fsm_states: int
    fsm_edges: int
    fsm_refinements: int
    shellcode: dict[str, int]
    median_sensor_autonomy: float

    @property
    def autonomy(self) -> float:
        """Share of conversations answered without the honeyfarm."""
        total = self.handled_locally + self.proxied
        return self.handled_locally / total if total else 0.0


def collect_stats(deployment: SGNetDeployment) -> DeploymentStats:
    """Snapshot a deployment's counters after :meth:`observe`."""
    handled = sum(s.n_handled_locally for s in deployment.sensors.values())
    proxied = sum(s.n_proxied for s in deployment.sensors.values())
    autonomies = []
    for sensor in deployment.sensors.values():
        total = sensor.n_handled_locally + sensor.n_proxied
        if total:
            autonomies.append(sensor.n_handled_locally / total)
    model = deployment.gateway.model
    return DeploymentStats(
        n_sensors=len(deployment.sensors),
        n_networks=len(deployment.sensor_networks),
        conversations=handled + proxied,
        handled_locally=handled,
        proxied=proxied,
        fsm_states=model.n_states,
        fsm_edges=model.n_edges,
        fsm_refinements=deployment.gateway.learner.n_refinements,
        shellcode=deployment.shellcode.stats(),
        median_sensor_autonomy=quantile(autonomies, 0.5) if autonomies else 0.0,
    )


def render_stats(stats: DeploymentStats) -> str:
    """Text rendering of the operational summary."""
    table = TextTable(["metric", "value"], title="Deployment operation summary")
    table.add_row(["sensors / networks", f"{stats.n_sensors} / {stats.n_networks}"])
    table.add_row(["conversations", stats.conversations])
    table.add_row(
        ["handled locally", f"{stats.handled_locally} ({stats.autonomy:.0%})"]
    )
    table.add_row(["proxied to honeyfarm", stats.proxied])
    table.add_row(["median sensor autonomy", f"{stats.median_sensor_autonomy:.0%}"])
    table.add_row(
        ["FSM states/edges/refinements",
         f"{stats.fsm_states}/{stats.fsm_edges}/{stats.fsm_refinements}"]
    )
    for key, value in stats.shellcode.items():
        table.add_row([f"shellcode pipeline: {key}", value])
    return table.render()
