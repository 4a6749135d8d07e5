"""Cross-referencing static (M) and behavioural (B) clusterings — §4.2.

The detector logic follows the paper's reasoning closely:

* a **rare singleton** is a size-1 B-cluster whose sample also sits in a
  size-1 M-cluster: plausibly a genuinely infrequent malware seen once;
* a **singleton anomaly** is a size-1 B-cluster whose sample belongs to
  a *larger* M-cluster that is dominated by some other, larger B-cluster
  — statically the sample is a known quantity, so its lone behavioural
  cluster is almost certainly an analysis artifact;
* an **environment split** is one M-cluster spread over several
  substantial B-clusters: one codebase whose observable behaviour
  depends on external conditions (dead DNS, C&C availability).

:func:`heal_singletons` implements the paper's remedy: re-execute just
the anomalous samples and re-cluster.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

from repro.core.epm import EPMResult
from repro.egpm.dataset import SGNetDataset
from repro.sandbox.anubis import AnubisService
from repro.sandbox.clustering import BehaviorClustering, ClusteringConfig, cluster_lsh
from repro.util.validation import require


@dataclass(frozen=True)
class SingletonAnomaly:
    """A size-1 B-cluster contradicted by the static view."""

    md5: str
    b_cluster: int
    m_cluster: int
    m_cluster_size: int
    dominant_b_cluster: int
    dominant_b_size: int


@dataclass(frozen=True)
class EnvironmentSplit:
    """One M-cluster fragmented across several substantial B-clusters."""

    m_cluster: int
    b_clusters: tuple[int, ...]
    samples_per_b: tuple[int, ...]


class CrossView:
    """Joint view over EPM M-clusters and behavioural B-clusters."""

    def __init__(
        self,
        dataset: SGNetDataset,
        epm: EPMResult,
        bclusters: BehaviorClustering,
    ) -> None:
        self.dataset = dataset
        self.epm = epm
        self.bclusters = bclusters
        self.m_of_sample = epm.m_cluster_of_samples(dataset)
        self.b_of_sample = dict(bclusters.assignment)
        #: samples present in both views (executed + statically classified)
        self.joint_samples = sorted(
            set(self.m_of_sample) & set(self.b_of_sample)
        )
        self._m_sample_counts: Counter = Counter(
            self.m_of_sample[md5] for md5 in self.joint_samples
        )
        self._b_to_m: dict[int, Counter] = defaultdict(Counter)
        self._m_to_b: dict[int, Counter] = defaultdict(Counter)
        for md5 in self.joint_samples:
            m, b = self.m_of_sample[md5], self.b_of_sample[md5]
            self._b_to_m[b][m] += 1
            self._m_to_b[m][b] += 1

    def m_clusters_of_b(self, b_cluster: int) -> Counter:
        """Sample counts per M-cluster inside one B-cluster."""
        return Counter(self._b_to_m.get(b_cluster, Counter()))

    def b_clusters_of_m(self, m_cluster: int) -> Counter:
        """Sample counts per B-cluster inside one M-cluster."""
        return Counter(self._m_to_b.get(m_cluster, Counter()))

    def singleton_b_clusters(self) -> list[int]:
        """All size-1 B-clusters (restricted to jointly-classified samples)."""
        return [
            b
            for b in self.bclusters.singletons()
            if self.bclusters.clusters[b][0] in self.m_of_sample
        ]

    def rare_singletons(self) -> list[str]:
        """Samples alone in *both* views: plausibly genuine rarities."""
        rare: list[str] = []
        for b in self.singleton_b_clusters():
            md5 = self.bclusters.clusters[b][0]
            m = self.m_of_sample[md5]
            if self._m_sample_counts[m] == 1:
                rare.append(md5)
        return rare

    def singleton_anomalies(self, *, min_m_size: int = 2) -> list[SingletonAnomaly]:
        """Size-1 B-clusters contradicted by a larger static cluster."""
        require(min_m_size >= 2, "min_m_size must be >= 2")
        anomalies: list[SingletonAnomaly] = []
        for b in self.singleton_b_clusters():
            md5 = self.bclusters.clusters[b][0]
            m = self.m_of_sample[md5]
            m_size = self._m_sample_counts[m]
            if m_size < min_m_size:
                continue
            peers = self._m_to_b[m]
            dominant_b, dominant_count = b, 0
            for peer_b, count in peers.items():
                if peer_b != b and count > dominant_count:
                    dominant_b, dominant_count = peer_b, count
            if dominant_count == 0:
                continue  # the M-cluster holds only singletons; ambiguous
            anomalies.append(
                SingletonAnomaly(
                    md5=md5,
                    b_cluster=b,
                    m_cluster=m,
                    m_cluster_size=m_size,
                    dominant_b_cluster=dominant_b,
                    dominant_b_size=dominant_count,
                )
            )
        return anomalies

    def environment_splits(
        self, *, min_b_clusters: int = 2, min_samples_per_b: int = 3
    ) -> list[EnvironmentSplit]:
        """M-clusters fragmented over several substantial B-clusters."""
        splits: list[EnvironmentSplit] = []
        for m, bs in sorted(self._m_to_b.items()):
            substantial = [
                (b, count) for b, count in bs.items() if count >= min_samples_per_b
            ]
            if len(substantial) >= min_b_clusters:
                substantial.sort(key=lambda bc: (-bc[1], bc[0]))
                splits.append(
                    EnvironmentSplit(
                        m_cluster=m,
                        b_clusters=tuple(b for b, _ in substantial),
                        samples_per_b=tuple(c for _, c in substantial),
                    )
                )
        return splits

    def summary(self) -> dict[str, int]:
        """Headline counters of the joint view."""
        singles = self.singleton_b_clusters()
        return {
            "joint_samples": len(self.joint_samples),
            "m_clusters": len(self._m_to_b),
            "b_clusters": len(self._b_to_m),
            "singleton_b_clusters": len(singles),
            "rare_singletons": len(self.rare_singletons()),
            "singleton_anomalies": len(self.singleton_anomalies()),
            "environment_splits": len(self.environment_splits()),
        }


def heal_singletons(
    crossview: CrossView,
    anubis: AnubisService,
    dataset: SGNetDataset,
    *,
    config: ClusteringConfig | None = None,
) -> tuple[BehaviorClustering, int]:
    """Re-execute anomalous samples and re-cluster (§4.2's remedy).

    Only samples flagged by :meth:`CrossView.singleton_anomalies` are
    re-run — the paper notes that re-running *everything* would be too
    expensive, and that the static comparison is precisely what lets the
    analyst target the few samples worth repeating.

    The healing is evaluated non-destructively: the re-executed profiles
    feed the returned clustering but the service's stored reports are
    left untouched (use :meth:`AnubisService.rerun` directly to persist
    a re-analysis).  Returns the new clustering and the number of
    samples re-executed.
    """
    anomalies = crossview.singleton_anomalies()
    profiles = anubis.profiles()
    for anomaly in anomalies:
        record = dataset.samples[anomaly.md5]
        require(
            record.behavior_handle is not None,
            f"sample {anomaly.md5} has no behaviour to re-run",
        )
        report = anubis.report_for(anomaly.md5)
        profiles[anomaly.md5] = anubis.sandbox.execute(
            record.behavior_handle,
            time=report.submitted_at,
            run_seed=0,
            allow_derail=False,
        )
    return cluster_lsh(profiles, config), len(anomalies)
