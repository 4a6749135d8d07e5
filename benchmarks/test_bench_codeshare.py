"""Code-sharing / patching / evolution benches (the abstract's claims).

Not a numbered table in the paper, but the analyses §4.3 and the
abstract build their conclusions on: patch lineages, shared propagation
routines, and the continuously-moving landscape.
"""

from repro.analysis.codeshare import CodeSharingAnalysis
from repro.analysis.crossview import CrossView
from repro.analysis.evolution import EvolutionAnalysis
from repro.util.tables import TextTable

from benchmarks.conftest import write_report


def test_bench_patch_lineages(paper_run, results_dir):
    crossview = CrossView(paper_run.dataset, paper_run.epm, paper_run.bclusters)
    sharing = CodeSharingAnalysis(
        paper_run.dataset, paper_run.epm, crossview, paper_run.grid
    )
    lineages = sharing.patch_lineages()

    top = lineages[0]
    lines = [
        "Patching and code sharing (abstract / §4.3)",
        "",
        sharing.render_lineage(top, max_steps=10),
        "",
        "shared propagation routines (P-cluster -> behavioural lineages):",
    ]
    for p_cluster, behaviours in sharing.shared_propagation()[:5]:
        lines.append(f"  P{p_cluster} -> B{behaviours}")
    text = "\n".join(lines)
    write_report(results_dir, "codeshare", text)
    print("\n" + text)

    # The worm lineage shows tens of patch steps dominated by size
    # changes with occasional recompilations; at least one propagation
    # routine is shared across distinct behaviours.
    assert top.n_patches > 20
    assert len(top.recompilations()) >= 1
    assert sharing.shared_propagation()


def test_bench_weekly_evolution(paper_run, results_dir):
    evolution = EvolutionAnalysis(paper_run.dataset, paper_run.epm, paper_run.grid)
    weekly = evolution.weekly_activity()

    curve = evolution.sample_discovery_curve()
    table = TextTable(
        ["quarter of window", "cumulative samples", "new M-clusters"],
        title="Landscape evolution over the observation window",
    )
    n = len(weekly)
    for quarter in range(1, 5):
        end = quarter * n // 4
        table.add_row(
            [
                f"Q{quarter}",
                curve[end - 1],
                sum(w.new_m_clusters for w in weekly[: end]),
            ]
        )
    text = table.render()
    write_report(results_dir, "evolution", text)
    print("\n" + text)

    # Discovery never saturates inside the window.
    q1, q2, q3, q4 = (curve[i * n // 4 - 1] for i in range(1, 5))
    assert q1 < q2 < q3 < q4
    late_births = sum(w.new_m_clusters for w in weekly[n // 2 :])
    assert late_births > 5
