"""Oracle tests: the production analysis kernels against scalar references.

The pipeline runs one batch path per kernel.  On the CI smoke scenario
(seed 7, 8 weeks, scale 0.05) and on the session's reduced paper run,
this module rebuilds both analysis steps from their row-wise references
and demands exact equality:

* EPM — per dimension, ``FeatureSet.extract`` + ``discover_invariants``
  + ``PatternSet.discover``, with every event assigned through
  ``PatternSet.scan_classify``;
* B-clusters — per-profile ``MinHasher.signature`` candidates, each
  pair verified by ``jaccard(...) >= threshold``, joined by connected
  components.
"""

import networkx as nx
import pytest

from repro.core.epm import EPMClustering
from repro.core.features import Dimension, default_feature_sets
from repro.core.invariants import discover_invariants
from repro.core.patterns import PatternSet
from repro.experiments.scenario import PaperScenario, ScenarioConfig
from repro.sandbox.clustering import (
    BehaviorClustering,
    _dedupe,
    _verify_pairs_vectorized,
)
from repro.sandbox.lsh import LSHIndex, MinHasher
from repro.util.stats import jaccard


@pytest.fixture(scope="module", params=["smoke", "small"])
def run(request):
    if request.param == "small":
        return request.getfixturevalue("small_run")
    return PaperScenario(seed=7, config=ScenarioConfig(n_weeks=8, scale=0.05)).run()


def _row_wise_fit(dataset, feature_set, policy):
    observations = []
    instances = {}
    for event in dataset.events:
        if not feature_set.applies_to(event):
            continue
        values = feature_set.extract(event)
        observations.append((values, int(event.source), int(event.sensor)))
        instances[event.event_id] = values
    invariants = discover_invariants(observations, feature_set.names, policy)
    pattern_set = PatternSet.discover(
        (values for values, _source, _sensor in observations), invariants
    )
    return invariants, pattern_set, instances


class TestEpmOracle:
    @pytest.mark.parametrize("dimension", list(Dimension), ids=lambda d: d.value)
    def test_dimension_matches_row_wise_reference(self, run, dimension):
        production = run.epm.dimensions[dimension]
        invariants, pattern_set, instances = _row_wise_fit(
            run.dataset,
            default_feature_sets()[dimension],
            run.config.invariant_policy,
        )
        assert instances  # every dimension has rows
        assert production.invariants.invariants == invariants.invariants
        assert production.invariants.support == invariants.support
        assert production.pattern_set.patterns == pattern_set.patterns
        assert [production.pattern_set.support_of(p) for p in pattern_set.patterns] == [
            pattern_set.support_of(p) for p in pattern_set.patterns
        ]
        assert set(production.assignment) == set(instances)
        for event_id, values in instances.items():
            cluster = production.clusters[production.assignment[event_id]]
            assert cluster.pattern == pattern_set.scan_classify(values)

    @pytest.mark.parametrize("dimension", list(Dimension), ids=lambda d: d.value)
    def test_fit_dimension_matches_fit(self, run, dimension):
        clustering = EPMClustering(policy=run.config.invariant_policy)
        alone = clustering.fit_dimension(
            run.dataset, default_feature_sets()[dimension]
        )
        production = run.epm.dimensions[dimension]
        assert alone.assignment == production.assignment
        assert alone.pattern_set.patterns == production.pattern_set.patterns


class TestLshOracle:
    @pytest.fixture(scope="class")
    def reference(self, run):
        """Scalar candidates and per-pair verdicts over the run's profiles."""
        config = run.config.clustering
        profiles = run.anubis.profiles()
        groups, uniques = _dedupe(profiles)
        hasher = MinHasher(
            config.n_hashes, seed=config.minhash_seed, backend=config.minhash_backend
        )
        index = LSHIndex(
            bands=config.bands, rows=config.rows, max_bucket_size=config.max_bucket_size
        )
        for i, features in enumerate(uniques):
            index.add(i, hasher.signature(profiles[groups[features][0]].hashed_features()))
        feature_sets = [set(features) for features in uniques]
        pairs = sorted(index.candidate_pairs())
        verdicts = [
            jaccard(feature_sets[i], feature_sets[j]) >= config.threshold
            for i, j in pairs
        ]
        return groups, uniques, feature_sets, pairs, verdicts

    def test_verdicts_match_per_pair_jaccard(self, run, reference):
        _groups, _uniques, feature_sets, pairs, verdicts = reference
        assert any(verdicts) and not all(verdicts)  # both outcomes exercised
        batch = _verify_pairs_vectorized(
            feature_sets, pairs, run.config.clustering.threshold
        )
        assert batch.tolist() == verdicts

    def test_clustering_matches_reference_components(self, run, reference):
        groups, uniques, _feature_sets, pairs, verdicts = reference
        graph = nx.Graph()
        graph.add_nodes_from(range(len(uniques)))
        graph.add_edges_from(pair for pair, similar in zip(pairs, verdicts) if similar)
        assignment = {}
        for label, component in enumerate(nx.connected_components(graph)):
            for i in component:
                for key in groups[uniques[i]]:
                    assignment[key] = label
        expected = BehaviorClustering.from_assignment(assignment)
        production = run.bclusters
        assert production.assignment == expected.assignment
        assert production.n_candidate_pairs == len(pairs)
        assert production.n_exact_comparisons == len(pairs)
