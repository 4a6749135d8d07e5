"""Deployment-diversity bench: the value of 30 network locations.

Not a numbered figure, but the premise of the whole system: SGNET's
spatial diversity is what makes the invariant constraints meaningful
and location-targeted activity visible at all.
"""

from repro.analysis.coverage import SensorCoverage, deployment_size_ablation
from repro.util.tables import TextTable

from benchmarks.conftest import write_report


def test_bench_sensor_coverage(paper_run, results_dir):
    coverage = SensorCoverage(paper_run.dataset, paper_run.epm)

    curve = coverage.accumulation_curve()
    points = deployment_size_ablation(paper_run.dataset, [1, 3, 10, 20, 30])

    table = TextTable(
        ["locations", "events", "samples", "E", "P", "M", "invariants"],
        title="Ablation: deployment size (busiest-first sub-deployments)",
    )
    for point in points:
        table.add_row(
            [
                point.n_networks,
                point.n_events,
                point.n_samples,
                point.e_clusters,
                point.p_clusters,
                point.m_clusters,
                point.total_invariants,
            ]
        )
    marks = [curve[i] for i in (0, len(curve) // 4, len(curve) // 2, len(curve) - 1)]
    text = table.render() + (
        f"\nM-cluster accumulation over locations (1/25%/50%/100%): {marks}"
        f"\nmedian single-location coverage: "
        f"{coverage.median_single_location_coverage():.0%} of all M-clusters"
    )
    write_report(results_dir, "ablation_deployment", text)
    print("\n" + text)

    # The curve keeps rising: every added location contributes clusters.
    assert curve[0] < curve[-1] * 0.7
    assert coverage.median_single_location_coverage() < 0.75
    exclusive = coverage.exclusive_clusters()
    assert sum(len(c) for c in exclusive.values()) > 0
