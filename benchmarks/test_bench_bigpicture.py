"""Headline reproduction (§4, §4.1): EPM clustering over the full dataset.

Regenerates: total samples collected/executed, and the 39/27/260/972
E/P/M/B cluster counts.  A complete EPM refit (invariant discovery +
pattern discovery + classification over all three dimensions) on the
paper-scale dataset must give the run's own counts.
"""

from repro.core.epm import EPMClustering
from repro.experiments.drivers import headline

from benchmarks.conftest import write_report


def test_bench_epm_full_fit(paper_run, results_dir):
    epm = EPMClustering().fit(paper_run.dataset)
    assert epm.counts() == paper_run.epm.counts()

    measured, text = headline(paper_run)
    write_report(results_dir, "headline", text)
    print("\n" + text)

    # Shape assertions vs the paper (factors, not absolute equality).
    assert 4000 < measured["samples_collected"] < 9000
    assert 3500 < measured["samples_executed"] < measured["samples_collected"]
    assert 20 <= measured["e_clusters"] <= 60
    assert 12 <= measured["p_clusters"] <= 45
    assert 150 <= measured["m_clusters"] <= 400
    assert 600 <= measured["b_clusters"] <= 1400
    assert measured["size1_b_clusters"] / measured["b_clusters"] > 0.75


def test_bench_behaviour_clustering(paper_run):
    """The scalable B-clustering run the 972-cluster figure comes from."""
    result = paper_run.anubis.cluster()
    assert result.n_clusters == paper_run.bclusters.n_clusters


def test_default_seed_regression(paper_run):
    """The published numbers of EXPERIMENTS.md must stay put exactly."""
    from repro.experiments.regression import check_headline

    deviations = check_headline(paper_run.headline())
    assert deviations == [], "; ".join(deviations)
