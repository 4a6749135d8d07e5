"""Observation diversity: what each network location contributes.

The title's "diverse observation perspectives" is not only about
feature types — SGNET's defining property is its *spatial* diversity
(150 addresses in 30 networks).  This module quantifies why that
matters:

* :class:`SensorCoverage` — per-network event/source/cluster coverage
  and the species-accumulation curve of M-clusters as locations are
  added;
* :func:`restrict_to_networks` — the dataset a smaller deployment would
  have collected;
* :func:`deployment_size_ablation` — EPM re-fit on k-location
  sub-deployments: with few sensors the "witnessed on >= 3 honeypot
  IPs" constraint starves invariant discovery and location-targeted
  activity (bots) disappears from view entirely.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from typing import Sequence

from repro.core.epm import EPMClustering, EPMResult
from repro.core.invariants import InvariantPolicy
from repro.egpm.dataset import SGNetDataset
from repro.util.validation import require


@dataclass(frozen=True)
class NetworkView:
    """What one monitored network location observed."""

    network: int
    n_events: int
    n_sources: int
    n_samples: int
    m_clusters: frozenset[int]
    families: frozenset[str]


class SensorCoverage:
    """Per-location observation statistics over one dataset."""

    def __init__(self, dataset: SGNetDataset, epm: EPMResult) -> None:
        self.dataset = dataset
        self.epm = epm
        per_network_events: dict[int, list] = defaultdict(list)
        for event in dataset.events:
            per_network_events[event.sensor.slash24].append(event)
        self._views: dict[int, NetworkView] = {}
        for network, events in per_network_events.items():
            m_clusters = {
                epm.mu.cluster_of(e.event_id)
                for e in events
                if epm.mu.cluster_of(e.event_id) is not None
            }
            families = {
                e.ground_truth.family for e in events if e.ground_truth is not None
            }
            self._views[network] = NetworkView(
                network=network,
                n_events=len(events),
                n_sources=len({int(e.source) for e in events}),
                n_samples=len(
                    {e.malware.md5 for e in events if e.malware is not None}
                ),
                m_clusters=frozenset(m_clusters),
                families=frozenset(families),
            )

    @property
    def networks(self) -> list[int]:
        """Monitored /24s, by decreasing event count."""
        return sorted(self._views, key=lambda n: -self._views[n].n_events)

    def view(self, network: int) -> NetworkView:
        """One location's view."""
        return self._views[network]

    def views(self) -> list[NetworkView]:
        """All views, by decreasing event count."""
        return [self._views[n] for n in self.networks]

    def accumulation_curve(self, order: Sequence[int] | None = None) -> list[int]:
        """Cumulative distinct M-clusters as locations are added.

        The species-accumulation curve: its failure to flatten early is
        the quantitative argument for a *distributed* deployment.
        """
        networks = list(order) if order is not None else self.networks
        seen: set[int] = set()
        curve: list[int] = []
        for network in networks:
            seen |= self._views[network].m_clusters
            curve.append(len(seen))
        return curve

    def exclusive_clusters(self) -> dict[int, set[int]]:
        """M-clusters visible from exactly one location."""
        witness: Counter = Counter()
        for view in self._views.values():
            for cluster in view.m_clusters:
                witness[cluster] += 1
        exclusive: dict[int, set[int]] = defaultdict(set)
        for network, view in self._views.items():
            for cluster in view.m_clusters:
                if witness[cluster] == 1:
                    exclusive[network].add(cluster)
        return dict(exclusive)

    def median_single_location_coverage(self) -> float:
        """Median share of all M-clusters a single location sees."""
        total = self.epm.mu.n_clusters
        require(total > 0, "no M-clusters to cover")
        shares = sorted(len(v.m_clusters) / total for v in self._views.values())
        mid = len(shares) // 2
        if len(shares) % 2:
            return shares[mid]
        return (shares[mid - 1] + shares[mid]) / 2


def restrict_to_networks(
    dataset: SGNetDataset, networks: Sequence[int]
) -> SGNetDataset:
    """The dataset a deployment covering only ``networks`` would hold."""
    wanted = set(networks)
    subset = SGNetDataset()
    for event in dataset.events:
        if event.sensor.slash24 not in wanted:
            continue
        handle = None
        if event.malware is not None:
            record = dataset.samples.get(event.malware.md5)
            if record is not None:
                handle = record.behavior_handle
        subset.add_event(
            replace(event, event_id=subset.next_event_id()),
            behavior_handle=handle,
        )
    return subset


@dataclass(frozen=True)
class DeploymentPoint:
    """EPM outcome for one sub-deployment size."""

    n_networks: int
    n_events: int
    n_samples: int
    e_clusters: int
    p_clusters: int
    m_clusters: int
    total_invariants: int


def deployment_size_ablation(
    dataset: SGNetDataset,
    sizes: Sequence[int],
    *,
    policy: InvariantPolicy | None = None,
) -> list[DeploymentPoint]:
    """Re-fit EPM on the k busiest network locations, for each k.

    Uses the same invariant policy throughout — shrinking the deployment
    under a fixed "seen by >= 3 honeypot IPs" rule is exactly the
    experiment that shows why the constraint needs spatial diversity to
    be meaningful.
    """
    require(len(sizes) > 0, "need at least one deployment size")
    by_events = Counter(e.sensor.slash24 for e in dataset.events)
    ranked = [network for network, _n in by_events.most_common()]
    clustering = EPMClustering(policy=policy)
    points: list[DeploymentPoint] = []
    for size in sizes:
        require(size >= 1, "deployment size must be >= 1")
        subset = restrict_to_networks(dataset, ranked[:size])
        if len(subset) == 0:
            points.append(
                DeploymentPoint(size, 0, 0, 0, 0, 0, 0)
            )
            continue
        epm = clustering.fit(subset)
        counts = epm.counts()
        total_invariants = sum(
            dim.invariants.total_invariants for dim in epm.dimensions.values()
        )
        points.append(
            DeploymentPoint(
                n_networks=min(size, len(ranked)),
                n_events=len(subset),
                n_samples=subset.n_samples,
                e_clusters=counts["e_clusters"],
                p_clusters=counts["p_clusters"],
                m_clusters=counts["m_clusters"],
                total_invariants=total_invariants,
            )
        )
    return points
