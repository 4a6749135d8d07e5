"""Pattern stability over time: does today's model explain tomorrow?

The paper motivates "continuously carrying on the collection of data on
the threat landscape and on the study of its future evolution" — i.e.
a model mined at time T degrades on traffic from T+1.  This module
quantifies that: EPM invariants and patterns are mined on a *training*
sub-window and then classify a disjoint *evaluation* sub-window;
instances that no specific pattern explains (they fall to the
all-wildcard root) are *novel* activity the old model has never seen.

:func:`drift_analysis` runs the train/evaluate split for every
dimension and reports explained/novel rates plus the share of
evaluation-window clusters that did not exist in training.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.evolution import dataset_between
from repro.core.epm import EPMClustering
from repro.core.features import Dimension, default_feature_sets
from repro.core.patterns import WILDCARD
from repro.egpm.dataset import SGNetDataset
from repro.util.timegrid import TimeGrid
from repro.util.validation import require


@dataclass(frozen=True)
class DriftReport:
    """Train-on-past / evaluate-on-future outcome for one dimension."""

    dimension: Dimension
    n_train: int
    n_eval: int
    explained: int
    novel: int
    train_patterns: int
    eval_only_patterns: int

    @property
    def novelty_rate(self) -> float:
        """Share of future instances the past model cannot explain."""
        return self.novel / self.n_eval if self.n_eval else 0.0

    @property
    def explained_rate(self) -> float:
        """Share of future instances landing on a specific past pattern."""
        return self.explained / self.n_eval if self.n_eval else 0.0


def drift_analysis(
    dataset: SGNetDataset,
    grid: TimeGrid,
    *,
    split_week: int | None = None,
    clustering: EPMClustering | None = None,
) -> dict[Dimension, DriftReport]:
    """Mine on [0, split), classify [split, end), per dimension."""
    clustering = clustering or EPMClustering()
    split = split_week if split_week is not None else grid.n_weeks // 2
    require(0 < split < grid.n_weeks, "split must be inside the window")

    train = dataset_between(dataset, grid, 0, split)
    evaluation = dataset_between(dataset, grid, split, grid.n_weeks)
    require(len(train) > 0 and len(evaluation) > 0, "both halves need events")

    reports: dict[Dimension, DriftReport] = {}
    for dimension, feature_set in default_feature_sets().items():
        trained = clustering.fit_dimension(train, feature_set)
        root = tuple([WILDCARD] * len(feature_set.names))

        explained = 0
        novel = 0
        n_eval = 0
        for event in evaluation.events:
            if not feature_set.applies_to(event):
                continue
            n_eval += 1
            values = feature_set.extract(event)
            assigned = trained.pattern_set.classify(values, trained.invariants)
            if assigned == root:
                novel += 1
            else:
                explained += 1

        train_patterns = set(trained.pattern_set.patterns)
        # Patterns the future would have minted that training never saw:
        future = clustering.fit_dimension(evaluation, feature_set)
        future_patterns = set(future.pattern_set.patterns)
        eval_only = len(future_patterns - train_patterns)

        reports[dimension] = DriftReport(
            dimension=dimension,
            n_train=trained.n_instances,
            n_eval=n_eval,
            explained=explained,
            novel=novel,
            train_patterns=len(train_patterns),
            eval_only_patterns=eval_only,
        )
    return reports


def render_drift(reports: dict[Dimension, DriftReport]) -> str:
    """Text table of the drift analysis."""
    from repro.util.tables import TextTable

    table = TextTable(
        ["dimension", "train inst.", "eval inst.", "explained", "novel",
         "new patterns in eval"],
        title="Pattern drift: model mined on the first half vs second half",
    )
    for dimension, report in reports.items():
        table.add_row(
            [
                dimension.value,
                report.n_train,
                report.n_eval,
                f"{report.explained_rate:.1%}",
                f"{report.novelty_rate:.1%}",
                report.eval_only_patterns,
            ]
        )
    return table.render()
