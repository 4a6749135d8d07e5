"""Figure 4: characterising the size-1 anomaly samples.

Top panel: AV names a popular vendor gives those samples (Rahack/Allaple
variants dominate).  Bottom panel: their (E, P) propagation coordinates
(nearly all delivered by the TCP/9988 PUSH P-pattern).
"""

from repro.analysis.avnames import av_name_distribution, ep_coordinate_distribution
from repro.analysis.crossview import CrossView
from repro.experiments.drivers import figure4

from benchmarks.conftest import write_report


def test_bench_figure4_distributions(paper_run, results_dir):
    crossview = CrossView(paper_run.dataset, paper_run.epm, paper_run.bclusters)
    md5s = [a.md5 for a in crossview.singleton_anomalies()]
    av = av_name_distribution(paper_run.dataset, md5s)
    ep = ep_coordinate_distribution(paper_run.dataset, paper_run.epm, md5s)

    result, text = figure4(paper_run)
    write_report(results_dir, "figure4", text)
    print("\n" + text)

    rahack = sum(n for label, n in av.items() if "Rahack" in str(label))
    assert rahack / sum(av.values()) > 0.6  # top panel: Rahack variants
    top_ep = ep.most_common(1)[0][1]
    assert top_ep / sum(ep.values()) > 0.9  # bottom panel: one EP pair
    assert result["share"] > 0.9
