"""Sensitivity sweeps: the series behind the design choices.

* singleton mass vs analysis-environment flakiness (§4.2's anomaly
  population is manufactured by derailed runs);
* LSH banding vs candidate recall (why bands=20 x rows=5);
* B-structure vs the Jaccard threshold (the t=0.7 choice).
"""

from repro.experiments.sweeps import lsh_shape_sweep, noise_sweep, threshold_sweep
from repro.util.tables import TextTable

from benchmarks.conftest import write_report


def test_bench_noise_sweep(paper_run, results_dir):
    multipliers = [0.0, 0.5, 1.0, 1.5]
    points = noise_sweep(
        paper_run.dataset,
        paper_run.catalog.environment,
        multipliers,
        clustering=paper_run.config.clustering,
    )
    table = TextTable(
        ["noise multiplier", "B-clusters", "singletons", "singleton share"],
        title="Sweep: size-1 anomaly mass vs analysis flakiness",
    )
    for point in points:
        table.add_row(
            [
                point.multiplier,
                point.n_clusters,
                point.n_singletons,
                f"{point.singleton_share:.1%}",
            ]
        )
    text = table.render()
    write_report(results_dir, "sweep_noise", text)
    print("\n" + text)

    shares = [p.singleton_share for p in points]
    assert shares == sorted(shares)
    assert shares[0] < 0.05 and shares[-1] > 0.2


def test_bench_lsh_shape_sweep(paper_run, results_dir):
    profiles = dict(list(paper_run.anubis.profiles().items())[:600])
    shapes = [(10, 8), (14, 6), (20, 5), (25, 4)]
    points = lsh_shape_sweep(profiles, shapes, threshold=0.7)
    table = TextTable(
        ["bands x rows", "recall@0.7", "candidate pairs"],
        title="Sweep: LSH banding vs true-pair recall",
    )
    for point in points:
        table.add_row(
            [f"{point.bands}x{point.rows}", f"{point.recall:.2f}", point.candidate_pairs]
        )
    text = table.render()
    write_report(results_dir, "sweep_lsh", text)
    print("\n" + text)

    by_shape = {(p.bands, p.rows): p for p in points}
    assert by_shape[(20, 5)].recall > 0.9
    assert by_shape[(20, 5)].recall >= by_shape[(10, 8)].recall


def test_bench_threshold_sweep(paper_run, results_dir):
    profiles = dict(list(paper_run.anubis.profiles().items())[:800])
    thresholds = [0.5, 0.6, 0.7, 0.8, 0.9]
    points = threshold_sweep(profiles, thresholds)
    table = TextTable(
        ["threshold", "B-clusters", "singletons", "largest"],
        title="Sweep: B-structure vs Jaccard threshold",
    )
    for point in points:
        table.add_row(
            [point.threshold, point.n_clusters, point.n_singletons, point.largest]
        )
    text = table.render()
    write_report(results_dir, "sweep_threshold", text)
    print("\n" + text)

    counts = [p.n_clusters for p in points]
    assert counts == sorted(counts)
