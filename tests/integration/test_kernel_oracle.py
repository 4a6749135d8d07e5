"""Oracle tests: the production analysis kernels against scalar references.

The pipeline runs one batch path per kernel.  On the CI smoke scenario
(seed 7, 8 weeks, scale 0.05) and on the session's reduced paper run,
this module rebuilds both analysis steps from their row-wise references
and demands exact equality:

* EPM — per dimension, ``FeatureSet.extract`` + ``discover_invariants``,
  pattern supports counted one ``mask_instance`` per event, and every
  event assigned through ``PatternSet.scan_classify`` (production masks
  and classifies each distinct tuple once);
* serving — per dimension, ``PatternIndex.classify`` and
  ``PatternIndex.batch_classify`` against ``PatternSet.scan_classify``
  on every distinct observed tuple plus one novel variant of each, and
  every ``ServingClassifier`` single and batch answer against a freshly
  built ``Classification`` of the scanned pattern;
* B-clusters — per-profile ``MinHasher.signature`` candidates, each
  pair's similarity equal to ``jaccard(...)`` and verified by
  ``jaccard(...) >= threshold``, joined by connected components.
"""

from types import SimpleNamespace

import networkx as nx
import numpy as np
import pytest

from repro.core.epm import EPMClustering
from repro.core.features import Dimension, default_feature_sets
from repro.core.invariants import discover_invariants
from repro.core.pattern_index import PatternIndex
from repro.core.patterns import WILDCARD, PatternSet, format_pattern, mask_instance
from repro.egpm.columnar import Vocabulary
from repro.egpm.events import AttackEvent
from repro.experiments.scenario import PaperScenario, ScenarioConfig
from repro.sandbox.clustering import (
    BehaviorClustering,
    _dedupe,
    _pair_similarities,
)
from repro.sandbox.lsh import LSHIndex, MinHasher
from repro.serve.classifier import Classification, ServingClassifier
from repro.serve.model import ModelArtifact
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
    # Phase 3 one row at a time: each row's mask adds one to its support;
    # the all-wildcard root is always kept (support 0 when no row masks
    # to it), as ``PatternSet.discover`` keeps it.
    support = {}
    for values, _source, _sensor in observations:
        masked = mask_instance(values, invariants)
        support[masked] = support.get(masked, 0) + 1
    support.setdefault((WILDCARD,) * len(feature_set.names), 0)
    return invariants, PatternSet(support), instances


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


def _novel_variant(values, invariants, pattern_set, serial):
    """``values`` with one invariant-valued feature replaced by a
    sentinel so that its mask names no discovered pattern, or ``None``."""
    for feature, value in enumerate(values):
        if not invariants.is_invariant(feature, value):
            continue
        candidate = tuple(
            f"__novel_{serial}_{feature}__" if i == feature else v
            for i, v in enumerate(values)
        )
        if mask_instance(candidate, invariants) not in pattern_set:
            return candidate
    return None


def _probes(run, dimension):
    """Every distinct observed tuple plus one novel variant of each."""
    clustering = run.epm.dimensions[dimension]
    invariants, pattern_set = clustering.invariants, clustering.pattern_set
    columns = run.dataset.to_columnar().dimensions[dimension]
    distinct = list(dict.fromkeys(columns.value_tuples()))
    variants = [
        _novel_variant(values, invariants, pattern_set, serial)
        for serial, values in enumerate(distinct)
    ]
    novel = [variant for variant in variants if variant is not None]
    assert novel, "no probe exercises the most-specific-first scan"
    return distinct + novel


def _stand_in(dimension, values, template):
    """An event whose ``dimension`` tuple is ``values``: that dimension's
    observable is a namespace carrying them (feature names are the
    attribute names the extractors read)."""
    names = default_feature_sets()[dimension].names
    fields = dict(zip(names, values))
    exploit, payload, malware = template.exploit, None, None
    if dimension is Dimension.EPSILON:
        exploit = SimpleNamespace(**fields)
    elif dimension is Dimension.PI:
        payload = SimpleNamespace(
            **{**fields, "interaction": SimpleNamespace(value=fields["interaction"])}
        )
    else:
        malware = SimpleNamespace(**fields, pe=SimpleNamespace(**fields))
    return AttackEvent(
        event_id=template.event_id,
        timestamp=template.timestamp,
        source=template.source,
        sensor=template.sensor,
        exploit=exploit,
        payload=payload,
        malware=malware,
    )


class TestClassifyOracle:
    @pytest.mark.parametrize("dimension", list(Dimension), ids=lambda d: d.value)
    def test_index_and_batch_match_the_scan(self, run, dimension):
        clustering = run.epm.dimensions[dimension]
        invariants, pattern_set = clustering.invariants, clustering.pattern_set
        probes = _probes(run, dimension)
        expected = [pattern_set.scan_classify(values) for values in probes]

        index = PatternIndex.compile(pattern_set, invariants)
        assert [index.classify(values) for values in probes] == expected
        vocabularies = [Vocabulary() for _ in invariants.feature_names]
        codes = np.array(
            [[v.intern(x) for v, x in zip(vocabularies, values)] for values in probes],
            dtype=np.int64,
        )
        ranks = index.batch_classify(codes, vocabularies)
        assert [index.pattern_of(rank) for rank in ranks.tolist()] == expected

    @pytest.fixture(scope="class")
    def serving(self, run):
        return ServingClassifier(ModelArtifact.from_run(run))

    @pytest.mark.parametrize("dimension", list(Dimension), ids=lambda d: d.value)
    def test_serving_answers_match_fresh_classifications(
        self, run, serving, dimension
    ):
        model = serving.model
        pattern_set = model.pattern_set(dimension)
        names = model.feature_names(dimension)

        def fresh(values):
            pattern = pattern_set.scan_classify(values)
            return Classification(
                dimension,
                pattern,
                model.cluster_of_pattern(dimension, pattern),
                format_pattern(pattern, names),
            )

        probes = _probes(run, dimension)
        expected = [fresh(values) for values in probes]
        assert [serving.classify_values(dimension, v) for v in probes] == expected

        template = run.dataset.events[0]
        stand_ins = [_stand_in(dimension, values, template) for values in probes]
        feature_set = default_feature_sets()[dimension]
        assert [feature_set.extract(event) for event in stand_ins] == probes
        batch = serving.classify_events(stand_ins)
        assert [answers[dimension.value] for answers in batch] == expected
        assert batch == [serving.classify_event(event) for event in stand_ins]

    def test_batch_with_shared_observables_equals_single_calls(self, run, serving):
        # The run's events share exploit and malware objects; repeating
        # them (reversed, so a dedupe slot carried over from an earlier
        # call points at the wrong rows) repeats both objects and tuples.
        events = list(run.dataset.events)
        assert len({id(event.exploit) for event in events}) < len(events)
        assert len({id(event.malware) for event in events}) < len(events)
        singles = [serving.classify_event(event) for event in events]
        assert serving.classify_events(events) == singles
        mixed = events[::-1] + events[: len(events) // 2]
        assert serving.classify_events(mixed) == singles[::-1] + singles[: len(events) // 2]


class TestLshOracle:
    @pytest.fixture(scope="class")
    def reference(self, run):
        """Scalar candidates and per-pair verdicts over the run's profiles."""
        config = run.config.clustering
        profiles = run.anubis.profiles()
        groups, uniques = _dedupe(profiles)
        hasher = MinHasher(config.n_hashes, seed=config.minhash_seed)
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
        similarity = _pair_similarities(feature_sets, pairs)
        assert similarity.tolist() == [
            jaccard(feature_sets[i], feature_sets[j]) for i, j in pairs
        ]
        assert (similarity >= run.config.clustering.threshold).tolist() == verdicts

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
