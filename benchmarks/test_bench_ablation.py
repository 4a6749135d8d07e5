"""Ablations over the design choices DESIGN.md calls out.

* invariant-policy sweep — how the 10/3/3 thresholds shape the cluster
  structure (the source/sensor diversity constraints are what keep the
  per-source MD5s of the M-cluster-13 case out of the invariant set);
* LSH vs exact clustering — the scalability claim of the B-clustering
  substrate (same partition, far fewer comparisons);
* ScriptGen learning — the honeyfarm-load argument (proxy ratio decays
  as the FSM grows).
"""

from repro.core.epm import EPMClustering
from repro.core.invariants import InvariantPolicy
from repro.sandbox.clustering import cluster_exact, cluster_lsh
from repro.util.tables import TextTable

from benchmarks.conftest import write_report


def test_bench_invariant_policy_sweep(paper_run, results_dir):
    policies = {
        "1/1/1": InvariantPolicy(1, 1, 1),
        "5/2/2": InvariantPolicy(5, 2, 2),
        "10/3/3 (paper)": InvariantPolicy(10, 3, 3),
        "30/5/5": InvariantPolicy(30, 5, 5),
        "100/10/10": InvariantPolicy(100, 10, 10),
    }

    rows = {
        name: EPMClustering(policy=policy).fit(paper_run.dataset).counts()
        for name, policy in policies.items()
    }

    table = TextTable(
        ["policy (inst/src/dst)", "E", "P", "M"],
        title="Ablation: invariant-policy sweep",
    )
    for name, counts in rows.items():
        table.add_row(
            [name, counts["e_clusters"], counts["p_clusters"], counts["m_clusters"]]
        )
    text = table.render()
    write_report(results_dir, "ablation_invariants", text)
    print("\n" + text)

    # Laxer thresholds mint spurious invariants (per-source MD5s leak in
    # and shatter the clustering); stricter ones wash structure out.
    assert rows["1/1/1"]["m_clusters"] > rows["10/3/3 (paper)"]["m_clusters"]
    assert rows["100/10/10"]["m_clusters"] < rows["10/3/3 (paper)"]["m_clusters"]


def test_bench_lsh_vs_exact(paper_run, results_dir):
    profiles = paper_run.anubis.profiles()

    lsh_result = cluster_lsh(profiles, paper_run.config.clustering)
    exact_result = cluster_exact(profiles, paper_run.config.clustering)

    table = TextTable(
        ["method", "clusters", "exact comparisons"],
        title="Ablation: LSH candidates vs full O(n^2) comparison",
    )
    table.add_row(["exact", exact_result.n_clusters, exact_result.n_exact_comparisons])
    table.add_row(["lsh", lsh_result.n_clusters, lsh_result.n_exact_comparisons])
    text = table.render()
    write_report(results_dir, "ablation_lsh", text)
    print("\n" + text)

    assert lsh_result.sizes() == exact_result.sizes()
    assert lsh_result.n_exact_comparisons < exact_result.n_exact_comparisons / 20


def test_bench_epm_vs_julisch_aoi(paper_run, results_dir):
    """EPM (flat wildcards) vs full Julisch AOI (taxonomy lattice) on mu.

    The paper calls EPM "a simplification of the multidimensional
    clustering technique described by Julisch"; this ablation runs the
    unsimplified original with size-band and port taxonomies and
    compares the resulting structure.
    """
    from repro.core.features import mu_features
    from repro.core.hierarchy import AOIMiner, band_taxonomy

    feature_set = mu_features()
    names = feature_set.names
    instances = [
        feature_set.extract(e)
        for e in paper_run.dataset
        if feature_set.applies_to(e)
    ]
    sizes = [v[names.index("size")] for v in instances]
    miner = AOIMiner(
        names,
        {"size": band_taxonomy(sizes, width=8192, label="size")},
        min_size=10,
    )
    result = miner.fit(instances)

    table = TextTable(
        ["technique", "mu patterns"],
        title="Ablation: EPM masking vs Julisch attribute-oriented induction",
    )
    table.add_row(["EPM (flat wildcard lattice)", paper_run.epm.mu.n_clusters])
    table.add_row(["Julisch AOI (size-band taxonomy)", result.n_patterns])
    text = table.render() + (
        "\nAOI keeps weak patterns at intermediate concepts (size bands)"
        "\ninstead of collapsing them to '*': more, finer junk bins."
    )
    write_report(results_dir, "ablation_aoi", text)
    print("\n" + text)

    assert result.n_patterns > 0
    # Every AOI pattern respects the support floor (or is the root bin).
    weak = [p for p, s in result.support.items() if s < 10]
    from repro.core.hierarchy import ANY

    assert all(all(v is ANY for v in p) for p in weak)


def test_bench_linkage_choice(paper_run, results_dir):
    """Single vs average vs complete linkage on real profiles.

    §4.2 blames single-linkage chaining for part of the clustering
    anomalies; this ablation shows how the B-structure shifts under
    stricter linkages at the same threshold.
    """
    from repro.sandbox.linkage import cluster_hierarchical

    profiles = dict(list(paper_run.anubis.profiles().items())[:1200])
    config = paper_run.config.clustering

    results = {
        method: cluster_hierarchical(profiles, config, method=method)
        for method in ("single", "average", "complete")
    }

    table = TextTable(
        ["linkage", "B-clusters", "singletons", "largest"],
        title="Ablation: linkage choice at t=0.7 (1200-sample slice)",
    )
    for method, result in results.items():
        sizes = result.sizes().values()
        table.add_row(
            [
                method,
                result.n_clusters,
                len(result.singletons()),
                max(sizes) if sizes else 0,
            ]
        )
    text = table.render() + (
        "\n(single linkage merges through chains; the paper names it as a"
        "\n source of the observed clustering bias)"
    )
    write_report(results_dir, "ablation_linkage", text)
    print("\n" + text)

    assert (
        results["single"].n_clusters
        <= results["average"].n_clusters
        <= results["complete"].n_clusters
    )


def test_bench_fsm_learning_economics(paper_run, results_dir):
    ratios = paper_run.deployment.proxy_ratio_by_week()
    weeks = sorted(ratios)
    first_quarter = [ratios[w] for w in weeks[: len(weeks) // 4]]
    last_quarter = [ratios[w] for w in weeks[-len(weeks) // 4 :]]
    early = sum(first_quarter) / len(first_quarter)
    late = sum(last_quarter) / len(last_quarter)

    table = TextTable(
        ["phase", "proxy ratio"],
        title="Ablation: honeyfarm load vs FSM learning (ScriptGen economics)",
    )
    table.add_row(["first quarter of observation", f"{early:.3f}"])
    table.add_row(["last quarter of observation", f"{late:.3f}"])
    text = table.render()
    write_report(results_dir, "ablation_fsm", text)
    print("\n" + text)

    assert late < early * 0.5  # sensors become largely autonomous
