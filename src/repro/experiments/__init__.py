"""Paper-scale scenario and per-table/figure experiment drivers.

:class:`~repro.experiments.scenario.PaperScenario` wires the whole stack
together: catalog -> landscape -> deployment -> enrichment -> EPM +
B-clustering.  The ``experiments`` modules then regenerate each table
and figure of the paper's evaluation from a :class:`ScenarioRun`:

===========================  =========================================
``run.headline()``           §4.1 headline counts
``table1(run)``              Table 1 (features and invariant counts)
``figure3(run)``             Figure 3 (E/P/M/B relation graph)
``figure4(run)``             Figure 4 (size-1 anomaly characterisation)
``figure5(run)``             Figure 5 (propagation context, worm vs bot)
``table2(run)``              Table 2 (IRC C&C correlation)
===========================  =========================================
"""

from repro.experiments.cache import ScenarioCache, cached_run, scenario_fingerprint
from repro.experiments.scenario import (
    PaperScenario,
    ScenarioConfig,
    ScenarioRun,
)
from repro.experiments.drivers import (
    anomaly_report,
    figure3,
    figure4,
    figure5,
    headline,
    mcluster13_report,
    table1,
    table2,
)

__all__ = [
    "PaperScenario",
    "ScenarioCache",
    "ScenarioConfig",
    "ScenarioRun",
    "anomaly_report",
    "cached_run",
    "scenario_fingerprint",
    "figure3",
    "figure4",
    "figure5",
    "headline",
    "mcluster13_report",
    "table1",
    "table2",
]
