"""Figure 3: the four-layer E/P/M/B relation graph (clusters >= 30 events).

The report prints the layer sizes, the heaviest edges, and the paper's
three key readings (few E/P combinations, payloads shared across
exploits, B grouping several M).
"""

from repro.analysis.relations import RelationGraph
from repro.experiments.drivers import figure3

from benchmarks.conftest import write_report


def test_bench_relation_graph(paper_run, results_dir):
    graph = RelationGraph(paper_run.dataset, paper_run.epm, paper_run.bclusters, min_events=30)
    _graph, text = figure3(paper_run)
    write_report(results_dir, "figure3", text)
    print("\n" + text)

    stats = graph.stats()
    # Paper shape: E and P layers much thinner than the M layer; the
    # B layer thinner than M among well-populated clusters.
    assert stats.e_nodes < stats.m_nodes / 3
    assert stats.p_nodes < stats.m_nodes / 3
    assert stats.b_nodes < stats.m_nodes
    assert graph.shared_payloads(), "payloads must be shared across exploits"
    assert graph.b_cluster_splits(), "B-clusters must group several M-clusters"
