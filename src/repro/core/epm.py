"""The EPM clustering facade: dataset in, E/P/M clusters out.

:class:`EPMClustering` runs the four phases over each dimension of an
:class:`~repro.egpm.dataset.SGNetDataset` and returns an
:class:`EPMResult` holding the three
:class:`~repro.core.classifier.DimensionClustering` objects plus
cross-dimension conveniences: per-sample M-cluster lookup, per-event
(E, P, M) coordinates, and the Table 1 invariant-count report.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.classifier import DimensionClustering
from repro.core.features import Dimension, FeatureSet, default_feature_sets
from repro.core.invariants import InvariantPolicy, discover_invariants_columnar
from repro.core.patterns import PatternSet
from repro.egpm.dataset import SGNetDataset
from repro.obs import metrics as obs_metrics
from repro.util.validation import require


@dataclass
class EPMResult:
    """Outcome of one EPM clustering run."""

    dimensions: dict[Dimension, DimensionClustering]
    policy: InvariantPolicy

    @property
    def epsilon(self) -> DimensionClustering:
        """The E-cluster assignment."""
        return self.dimensions[Dimension.EPSILON]

    @property
    def pi(self) -> DimensionClustering:
        """The P-cluster assignment."""
        return self.dimensions[Dimension.PI]

    @property
    def mu(self) -> DimensionClustering:
        """The M-cluster assignment."""
        return self.dimensions[Dimension.MU]

    def counts(self) -> dict[str, int]:
        """Number of E-, P- and M-clusters (the §4.1 headline)."""
        return {
            "e_clusters": self.epsilon.n_clusters,
            "p_clusters": self.pi.n_clusters,
            "m_clusters": self.mu.n_clusters,
        }

    def table1(self) -> dict[Dimension, dict[str, int]]:
        """Invariant counts per feature per dimension (Table 1)."""
        return {
            dim: clustering.invariants.count_per_feature()
            for dim, clustering in self.dimensions.items()
        }

    def coordinates(self, event_id: int) -> tuple[int | None, int | None, int | None]:
        """The (E, P, M) cluster coordinates of one event."""
        return (
            self.epsilon.cluster_of(event_id),
            self.pi.cluster_of(event_id),
            self.mu.cluster_of(event_id),
        )

    def m_cluster_of_samples(self, dataset: SGNetDataset) -> dict[str, int]:
        """MD5 -> M-cluster id.

        Mu features are sample-level (every event carrying a given MD5
        extracts the same mu tuple), so the mapping is well defined; the
        invariant is asserted while building it.
        """
        mapping: dict[str, int] = {}
        for event in dataset.events:
            if event.malware is None:
                continue
            cluster = self.mu.cluster_of(event.event_id)
            if cluster is None:
                continue
            md5 = event.malware.md5
            previous = mapping.get(md5)
            require(
                previous is None or previous == cluster,
                f"sample {md5} classified into two M-clusters",
            )
            mapping[md5] = cluster
        return mapping


class EPMClustering:
    """Configured EPM clustering, reusable across datasets."""

    def __init__(
        self,
        policy: InvariantPolicy | None = None,
        feature_sets: dict[Dimension, FeatureSet] | None = None,
        *,
        min_pattern_support: int = 1,
    ) -> None:
        self.policy = policy or InvariantPolicy()
        #: Whether the default feature sets are in play — the dataset
        #: caches its columnar view over exactly those.
        self._default_feature_sets = feature_sets is None
        self.feature_sets = feature_sets or default_feature_sets()
        require(min_pattern_support >= 1, "min_pattern_support must be >= 1")
        self.min_pattern_support = min_pattern_support

    def fit_dimension(
        self, dataset: SGNetDataset, feature_set: FeatureSet
    ) -> DimensionClustering:
        """Run phases 2-4 for one dimension.

        Builds the one-dimension columnar view of ``dataset`` and
        delegates to :meth:`fit_dimension_columnar`.
        """
        store = dataset.to_columnar({feature_set.dimension: feature_set})
        return self.fit_dimension_columnar(store.dimensions[feature_set.dimension])

    def fit_dimension_columnar(self, columns) -> DimensionClustering:
        """Run phases 2-4 for one dimension from its columnar view.

        ``columns`` is a :class:`~repro.egpm.columnar.DimensionColumns`.
        Invariant discovery runs as the vectorized kernel over the code
        matrix; pattern discovery and classification consume the decoded
        value tuples, which are exactly what ``FeatureSet.extract``
        returns event by event — so the resulting clustering is
        value-for-value identical to the row-wise reference
        (:func:`~repro.core.invariants.discover_invariants` over the
        extracted observations).
        """
        value_tuples = columns.value_tuples()
        invariants = discover_invariants_columnar(
            columns.codes,
            columns.source_codes,
            columns.sensor_codes,
            [vocab.values() for vocab in columns.vocabularies],
            columns.feature_names,
            self.policy,
        )
        pattern_set = PatternSet.discover(
            iter(value_tuples), invariants, min_support=self.min_pattern_support
        )
        return DimensionClustering(
            dimension=columns.dimension,
            feature_names=list(columns.feature_names),
            invariants=invariants,
            pattern_set=pattern_set,
            instances=dict(zip(columns.event_ids.tolist(), value_tuples)),
        )

    def fit(self, dataset: SGNetDataset) -> EPMResult:
        """Run EPM clustering over all three dimensions.

        Each dimension is fitted from the dataset's columnar view with
        :meth:`fit_dimension_columnar`.
        """
        require(len(dataset) > 0, "cannot cluster an empty dataset")
        store = dataset.to_columnar(
            None if self._default_feature_sets else self.feature_sets
        )
        dimensions = list(self.feature_sets)
        fitted = [
            self.fit_dimension_columnar(store.dimensions[dimension])
            for dimension in dimensions
        ]
        return self._record_result(dimensions, fitted)

    def _record_result(
        self,
        dimensions: list[Dimension],
        fitted: list[DimensionClustering],
    ) -> EPMResult:
        result = EPMResult(dimensions=dict(zip(dimensions, fitted)), policy=self.policy)
        # Recorded from the fitted artifacts, so the counts are a pure
        # function of the clustering.
        registry = obs_metrics.active()
        for dimension, clustering in result.dimensions.items():
            label = dimension.value
            registry.counter("epm.observations", dimension=label).inc(
                clustering.n_instances
            )
            registry.counter("epm.invariants_discovered", dimension=label).inc(
                clustering.invariants.total_invariants
            )
            registry.counter("epm.patterns_discovered", dimension=label).inc(
                len(clustering.pattern_set)
            )
            registry.gauge("epm.clusters", dimension=label).set(clustering.n_clusters)
        return result

