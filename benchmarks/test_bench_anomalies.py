"""§4.2: size-1 B-cluster anomaly detection and re-execution healing.

Regenerates: 860-of-972 singleton counts, the anomaly/rarity breakdown,
and the healing result, from the cross-view anomaly detection (the
analysis the paper argues would be impossible from the behavioural view
alone).
"""

from repro.analysis.crossview import CrossView
from repro.experiments.drivers import anomaly_report

from benchmarks.conftest import write_report


def test_bench_singleton_anomaly_detection(paper_run, results_dir):
    crossview = CrossView(paper_run.dataset, paper_run.epm, paper_run.bclusters)
    anomalies = crossview.singleton_anomalies()
    assert len(anomalies) > 400

    result, text = anomaly_report(paper_run, heal=True)
    write_report(results_dir, "anomalies", text)
    print("\n" + text)

    summary = result["summary"]
    # Paper shape: singletons dominate the B-clustering; the vast
    # majority are artifacts, a small minority genuine rarities; healing
    # by re-execution collapses the artifact population.
    assert summary["singleton_b_clusters"] / paper_run.bclusters.n_clusters > 0.75
    assert summary["singleton_anomalies"] > 5 * summary["rare_singletons"]
    healed = result["healed_summary"]
    assert healed["singleton_b_clusters"] < summary["singleton_b_clusters"] * 0.35
