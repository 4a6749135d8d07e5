"""Table 2: IRC C&C servers associated with M-clusters.

Regenerates: the (server, room) -> M-clusters table plus the
infrastructure-reuse fingerprint the paper reads from it (servers
sharing /24s, room names recurring across servers, single rooms
commanding multiple code variants), from the correlation pass over every
analysed sample's behavioural profile.
"""

from repro.analysis.irc import CnCCorrelation
from repro.experiments.drivers import table2

from benchmarks.conftest import write_report


def test_bench_cnc_correlation(paper_run, results_dir):
    correlation = CnCCorrelation(paper_run.dataset, paper_run.epm, paper_run.anubis)

    _correlation, text = table2(paper_run)
    write_report(results_dir, "table2", text)
    print("\n" + text)

    summary = correlation.infrastructure_summary()
    # Paper shape: tens of M-clusters resolve to IRC rendezvous; most
    # rendezvous command one or two M-clusters; the infrastructure shows
    # heavy reuse (shared /24s, recurring room names, patched botnets).
    assert summary["m_clusters"] > 40
    assert summary["subnets_with_multiple_servers"] >= 2
    assert summary["rooms_recurring_across_servers"] >= 3
    assert summary["rooms_commanding_multiple_m_clusters"] >= 3
    rows = correlation.table2()
    multi = sum(1 for _s, _r, ms in rows if len(ms) > 1)
    assert multi < len(rows)  # most rendezvous command a single M-cluster
