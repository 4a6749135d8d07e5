"""Table 1: selected features and number of invariant values per feature.

The scalar invariant discovery (EPM phase 2) reruns on the mu dimension
— the heaviest of the three — and must agree with the pipeline's counts;
the report prints the full paper-vs-measured table across all dimensions.
"""

from repro.core.features import mu_features
from repro.core.invariants import discover_invariants
from repro.experiments.drivers import table1

from benchmarks.conftest import write_report


def test_bench_invariant_discovery_mu(paper_run, results_dir):
    feature_set = mu_features()
    observations = [
        (feature_set.extract(e), int(e.source), int(e.sensor))
        for e in paper_run.dataset
        if feature_set.applies_to(e)
    ]
    stats = discover_invariants(observations, feature_set.names)

    flat, text = table1(paper_run)
    write_report(results_dir, "table1", text)
    print("\n" + text)

    # Shape: epsilon paths dominate epsilon ports; size/md5 invariants
    # are numerous (one per established variant); machine type is almost
    # unique; PE-header features have low cardinality.
    assert flat["fsm_path_id"] > flat["dst_port"]
    assert flat["size"] > 50
    assert flat["md5"] > 20
    assert flat["machine_type"] <= 3
    assert 1 <= flat["linker_version"] <= 12
    assert stats.count_per_feature()["size"] == flat["size"]
