"""Figure 5: propagation context of two B-clusters split over M-clusters.

Left of the paper's figure: an Allaple-style worm B-cluster — large
populations spread across the IP space, tens of active weeks, steady
arrivals.  Right: a bot B-cluster — small populations in specific
networks, few active weeks, bursty.
"""

from repro.analysis.context import PropagationContext
from repro.experiments.drivers import figure5

from benchmarks.conftest import write_report


def test_bench_figure5_context(paper_run, results_dir):
    context = PropagationContext(paper_run.dataset, paper_run.grid)
    contexts = context.figure5(paper_run.epm, paper_run.bclusters, 0)
    assert len(contexts) > 5  # one B-cluster spans many M-clusters

    results, text = figure5(paper_run)
    write_report(results_dir, "figure5", text)
    print("\n" + text)

    (worm_b, worm_slices), (bot_b, bot_slices) = results[0], results[1]
    # Worm side: widespread + long-lived.
    for ctx in worm_slices[:8]:
        assert len(ctx.slash8_histogram) > 10
        assert ctx.weeks_active > 8
    # Bot side: concentrated + bursty.
    bot_major = [c for c in bot_slices if c.n_events >= 15]
    assert bot_major
    for ctx in bot_major:
        assert len(ctx.slash8_histogram) <= 6
        assert ctx.burstiness > 0.25
