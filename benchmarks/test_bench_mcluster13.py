"""§4.2's M-cluster 13 case study.

Regenerates: the fully-pinned header pattern with MD5='*' (the exact
field values the paper quotes), the per-attacker polymorphism evidence
(one MD5 per source, recurring across honeypots), and the split of one
M-cluster over several B-clusters driven by the death of the
``iliketay.cn`` infrastructure.
"""

from repro.experiments.drivers import mcluster13_report

from benchmarks.conftest import write_report


def test_bench_mcluster13(paper_run, results_dir):
    result, text = mcluster13_report(paper_run)
    write_report(results_dir, "mcluster13", text)
    print("\n" + text)

    assert result["m_cluster"] is not None
    info = paper_run.epm.mu.clusters[result["m_cluster"]]
    pattern = dict(zip(paper_run.epm.mu.feature_names, info.pattern))
    # The paper's quoted invariants, field for field.
    assert pattern["size"] == 59_904
    assert pattern["machine_type"] == 332
    assert pattern["n_sections"] == 3
    assert pattern["n_dlls"] == 1
    assert pattern["os_version"] == 64
    assert pattern["linker_version"] == 92
    assert pattern["kernel32_symbols"] == ("GetProcAddress", "LoadLibraryA")
    # Per-source polymorphism: every MD5 tied to one attacker, most seen
    # by several honeypots; the cluster splits over >= 3 B-clusters.
    assert result["single_source_md5s"] == result["n_samples"]
    assert result["multi_sensor_md5s"] > result["n_samples"] * 0.5
    assert len(result["b_clusters"]) >= 3
