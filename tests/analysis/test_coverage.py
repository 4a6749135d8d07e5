"""Tests for observation-diversity analysis."""

import pytest

from repro.analysis.coverage import (
    SensorCoverage,
    deployment_size_ablation,
    restrict_to_networks,
)
from repro.util.validation import ValidationError


@pytest.fixture(scope="module")
def coverage(small_run):
    return SensorCoverage(small_run.dataset, small_run.epm)


class TestSensorCoverage:
    def test_every_monitored_hit_network_reported(self, small_run, coverage):
        hit = {e.sensor.slash24 for e in small_run.dataset}
        assert set(coverage.networks) == hit

    def test_views_ordered_by_events(self, coverage):
        counts = [v.n_events for v in coverage.views()]
        assert counts == sorted(counts, reverse=True)

    def test_view_fields_consistent(self, small_run, coverage):
        view = coverage.views()[0]
        assert view.n_sources <= view.n_events
        assert view.n_samples <= view.n_events
        assert len(view.m_clusters) <= small_run.epm.mu.n_clusters

    def test_accumulation_curve_monotone(self, coverage):
        curve = coverage.accumulation_curve()
        assert all(b >= a for a, b in zip(curve, curve[1:]))

    def test_accumulation_reaches_total(self, small_run, coverage):
        curve = coverage.accumulation_curve()
        total_observed = len(
            set().union(*(v.m_clusters for v in coverage.views()))
        )
        assert curve[-1] == total_observed

    def test_single_location_sees_a_fraction(self, coverage):
        # No single location sees the whole landscape — the argument for
        # a distributed deployment.
        share = coverage.median_single_location_coverage()
        assert 0.0 < share < 0.9

    def test_exclusive_clusters_exist(self, coverage):
        # Location-targeted bot bursts produce clusters only one
        # network location ever witnesses.
        exclusive = coverage.exclusive_clusters()
        assert sum(len(cs) for cs in exclusive.values()) > 0

    def test_custom_order_curve(self, coverage):
        reversed_order = list(reversed(coverage.networks))
        curve = coverage.accumulation_curve(order=reversed_order)
        assert curve[-1] == coverage.accumulation_curve()[-1]


class TestRestrictToNetworks:
    def test_filtering(self, small_run):
        network = small_run.dataset.events[0].sensor.slash24
        subset = restrict_to_networks(small_run.dataset, [network])
        assert len(subset) > 0
        assert all(e.sensor.slash24 == network for e in subset)

    def test_union_of_all_is_everything(self, small_run):
        networks = {e.sensor.slash24 for e in small_run.dataset}
        subset = restrict_to_networks(small_run.dataset, sorted(networks))
        assert len(subset) == len(small_run.dataset)

    def test_empty_restriction(self, small_run):
        assert len(restrict_to_networks(small_run.dataset, [])) == 0


class TestDeploymentSizeAblation:
    def test_structure_grows_with_deployment(self, small_run):
        points = deployment_size_ablation(small_run.dataset, [1, 4, 12])
        events = [p.n_events for p in points]
        m_counts = [p.m_clusters for p in points]
        assert events == sorted(events)
        assert m_counts[0] < m_counts[-1]

    def test_invariants_starve_on_tiny_deployments(self, small_run):
        points = deployment_size_ablation(small_run.dataset, [1, 12])
        # A single location sees a fraction of the activity (and none of
        # the bursts aimed elsewhere): invariants and M-structure shrink
        # markedly, though min_sensors=3 stays satisfiable within one
        # location's own addresses.
        assert points[0].total_invariants < points[1].total_invariants * 0.7
        assert points[0].m_clusters < points[1].m_clusters * 0.6

    def test_sizes_validated(self, small_run):
        with pytest.raises(ValidationError):
            deployment_size_ablation(small_run.dataset, [])
        with pytest.raises(ValidationError):
            deployment_size_ablation(small_run.dataset, [0])
