"""Tests for ScriptGen-style FSM learning."""

import pickle
import random

import pytest

from repro.honeypot.fsm import (
    FSMLearner,
    FSMModel,
    UNKNOWN_PATH_ID,
    pattern_matches,
    region_analysis,
)
from repro.malware.propagation import ExploitSpec, choice, fixed, rand
from repro.util.validation import ValidationError


class TestPatternMatches:
    def test_exact(self):
        assert pattern_matches(("a", "b"), ("a", "b"))

    def test_wildcard(self):
        assert pattern_matches(("a", None), ("a", "anything"))

    def test_length_mismatch(self):
        assert not pattern_matches(("a",), ("a", "b"))

    def test_value_mismatch(self):
        assert not pattern_matches(("a", "b"), ("a", "c"))


class TestRegionAnalysis:
    def test_fixed_region_found(self):
        messages = [("CMD", f"r{i}") for i in range(10)]
        patterns = region_analysis(messages, min_support=4)
        assert patterns == [("CMD", None)]

    def test_splits_by_different_fixed_values(self):
        messages = [("A", "x")] * 5 + [("B", "x")] * 5
        patterns = region_analysis(messages, min_support=4)
        assert set(patterns) == {("A", "x"), ("B", "x")}

    def test_partitions_by_length(self):
        messages = [("A",)] * 5 + [("A", "B")] * 5
        patterns = region_analysis(messages, min_support=4)
        assert ("A",) in patterns
        assert ("A", "B") in patterns

    def test_small_groups_discarded(self):
        messages = [("A", "x")] * 5 + [("RARE", "y")] * 2
        patterns = region_analysis(messages, min_support=4)
        assert all(p[0] != "RARE" for p in patterns)

    def test_min_support_validated(self):
        with pytest.raises(ValidationError):
            region_analysis([("a",)], min_support=0)

    def test_all_random_yields_wildcard_pattern(self):
        messages = [(f"u{i}", f"v{i}") for i in range(8)]
        patterns = region_analysis(messages, min_support=4)
        assert patterns == [(None, None)]


class TestFSMModel:
    def test_empty_model_knows_nothing(self):
        model = FSMModel()
        assert model.classify([("A",)]) == UNKNOWN_PATH_ID

    def test_empty_conversation_is_root(self):
        model = FSMModel()
        assert model.classify([]) == 0

    def test_walk_partial(self):
        model = FSMModel()
        child = model.new_node(1)
        model.add_edge(model.root, ("A", None), child)
        node, consumed = model.walk([("A", "x"), ("B", "y")])
        assert node is child
        assert consumed == 1

    def test_most_specific_edge_preferred(self):
        model = FSMModel()
        generic = model.new_node(1)
        specific = model.new_node(1)
        model.add_edge(model.root, (None, None), generic)
        model.add_edge(model.root, ("A", None), specific)
        assert model.classify([("A", "x")]) == specific.node_id
        assert model.classify([("B", "x")]) == generic.node_id

    def test_iter_nodes_counts(self):
        model = FSMModel()
        child = model.new_node(1)
        model.add_edge(model.root, ("A",), child)
        assert len(list(_iter_nodes(model))) == 2
        assert model.n_states == 2
        assert model.n_edges == 1


class TestFSMLearner:
    def _feed(self, learner, spec, n, seed=0):
        rng = random.Random(seed)
        results = []
        for _ in range(n):
            results.append(learner.observe(spec.generate_conversation(rng)))
        return results

    def test_learning_lifecycle(self):
        spec = ExploitSpec(
            name="e",
            dst_port=445,
            dialogue=((fixed("HELLO"), rand(4)), (fixed("BOOM"),)),
        )
        learner = FSMLearner(refine_threshold=10, min_support=4)
        results = self._feed(learner, spec, 30)
        # Early conversations are unknown, later ones classified.
        assert results[0] == UNKNOWN_PATH_ID
        assert results[-1] != UNKNOWN_PATH_ID
        assert learner.n_refinements >= 1

    def test_learned_path_is_stable(self):
        spec = ExploitSpec(
            name="e", dst_port=445, dialogue=((fixed("X"), rand(4)),)
        )
        learner = FSMLearner(refine_threshold=8, min_support=3)
        results = [r for r in self._feed(learner, spec, 40) if r != UNKNOWN_PATH_ID]
        assert len(set(results)) == 1

    def test_distinct_exploits_get_distinct_paths(self):
        spec_a = ExploitSpec(name="a", dst_port=445, dialogue=((fixed("AAA"), rand(4)),))
        spec_b = ExploitSpec(name="b", dst_port=139, dialogue=((fixed("BBB"), rand(4)),))
        learner = FSMLearner(refine_threshold=8, min_support=3)
        rng = random.Random(0)
        for _ in range(20):
            learner.observe(spec_a.generate_conversation(rng))
            learner.observe(spec_b.generate_conversation(rng))
        path_a = learner.classify(spec_a.generate_conversation(rng))
        path_b = learner.classify(spec_b.generate_conversation(rng))
        assert UNKNOWN_PATH_ID not in (path_a, path_b)
        assert path_a != path_b

    def test_choice_markers_split_paths(self):
        # The "implementation specificities" effect: one exploit spec with
        # a small-alphabet marker learns into one FSM path per marker.
        spec = ExploitSpec(
            name="e",
            dst_port=445,
            dialogue=((fixed("REQ"), choice("userA", "userB"), rand(4)),),
        )
        learner = FSMLearner(refine_threshold=30, min_support=4)
        rng = random.Random(0)
        for _ in range(120):
            learner.observe(spec.generate_conversation(rng))
        learner.flush()
        paths = {
            learner.classify(spec.generate_conversation(rng)) for _ in range(40)
        }
        paths.discard(UNKNOWN_PATH_ID)
        assert len(paths) == 2

    def test_flush_learns_tail_activities(self):
        spec = ExploitSpec(name="e", dst_port=445, dialogue=((fixed("TAIL"), rand(4)),))
        learner = FSMLearner(refine_threshold=50, min_support=4)
        rng = random.Random(0)
        convs = [spec.generate_conversation(rng) for _ in range(6)]
        for conv in convs:
            assert learner.observe(conv) == UNKNOWN_PATH_ID
        learner.flush()
        assert all(learner.classify(c) != UNKNOWN_PATH_ID for c in convs)

    def test_below_support_never_learned(self):
        spec = ExploitSpec(name="e", dst_port=445, dialogue=((fixed("RARE"), rand(4)),))
        learner = FSMLearner(refine_threshold=10, min_support=4)
        rng = random.Random(0)
        convs = [spec.generate_conversation(rng) for _ in range(2)]
        for conv in convs:
            learner.observe(conv)
        learner.flush()
        assert all(learner.classify(c) == UNKNOWN_PATH_ID for c in convs)

    def test_threshold_validation(self):
        with pytest.raises(ValidationError):
            FSMLearner(refine_threshold=2, min_support=4)

    def test_multi_message_subtree(self):
        spec = ExploitSpec(
            name="e",
            dst_port=445,
            dialogue=(
                (fixed("STEP1"), rand(3)),
                (fixed("STEP2"), rand(3)),
                (fixed("STEP3"),),
            ),
        )
        learner = FSMLearner(refine_threshold=10, min_support=4)
        rng = random.Random(0)
        for _ in range(30):
            learner.observe(spec.generate_conversation(rng))
        learner.flush()
        conv = spec.generate_conversation(rng)
        assert learner.classify(conv) != UNKNOWN_PATH_ID
        # Prefixes end at interior states with their own ids.
        full = learner.classify(conv)
        prefix = learner.classify(conv[:2])
        assert prefix != full


def _linear_match_edge(node, message):
    """Reference edge match: scan every edge, keep the first of the
    most specific matching patterns."""
    best, best_specificity = None, -1
    for pattern, child in node.edges:
        if pattern_matches(pattern, message):
            specificity = len(pattern) - pattern.count(None)
            if specificity > best_specificity:
                best, best_specificity = child, specificity
    return best


def _probes(node, rng):
    """Messages that hit ``node``'s edges: each pattern with its
    wildcards filled by tokens other edges fix there (so several edges
    of one length compete), plus a near miss per edge."""
    fillers: dict[int, list[str]] = {}
    for pattern, _child in node.edges:
        for position, token in enumerate(pattern):
            if token is not None and token not in fillers.setdefault(position, ["zz"]):
                fillers[position].append(token)
    probes = []
    for pattern, _child in node.edges:
        for _ in range(4):
            filled = [
                token if token is not None else rng.choice(fillers.get(position, ["zz"]))
                for position, token in enumerate(pattern)
            ]
            probes.append(tuple(filled))
        probes.append(tuple("zz" for _ in pattern))
    probes.append(("zz",) * 9)
    return probes


def _iter_nodes(model):
    stack = [model.root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(child for _pattern, child in node.edges)


def _assert_index_matches_reference(model, rng):
    for node in _iter_nodes(model):
        for message in _probes(node, rng):
            assert node.match_edge(message) is _linear_match_edge(node, message)


class TestIndexedEdgeMatch:
    # Same-length first messages that learn into overlapping root edges:
    # a generic (REQ, *, *) and two equally specific (REQ, userA, *) and
    # (REQ, *, tail), so probes meet competing and tied patterns.
    SPECS = [
        ExploitSpec(
            name="smb",
            dst_port=445,
            dialogue=(
                (fixed("REQ"), fixed("userA"), rand(3)),
                (fixed("BIND"), rand(2), choice("p1", "p2")),
            ),
        ),
        ExploitSpec(
            name="smb-variant",
            dst_port=445,
            dialogue=((fixed("REQ"), rand(5), rand(3)), (fixed("BIND"), rand(2), rand(2))),
        ),
        ExploitSpec(
            name="smb-tail", dst_port=445, dialogue=((fixed("REQ"), rand(5), fixed("tail")),)
        ),
        ExploitSpec(name="nbt", dst_port=139, dialogue=((choice("N", "M"), rand(4)),)),
    ]

    def test_ties_keep_the_first_added_edge(self):
        model = FSMModel()
        first, second, exact = (model.new_node(1) for _ in range(3))
        model.add_edge(model.root, ("A", None), first)
        model.add_edge(model.root, (None, "B"), second)
        assert model.root.match_edge(("A", "B")) is first
        model.add_edge(model.root, ("A", "B"), exact)
        assert model.root.match_edge(("A", "B")) is exact
        assert model.root.match_edge(("C", "B")) is second
        assert model.root.match_edge(("A", "B", "C")) is None

    def test_matches_linear_reference_during_online_learning(self):
        learner = FSMLearner(refine_threshold=12, min_support=3)
        root = learner.model.root
        rng = random.Random(5)
        probe_rng = random.Random(6)
        # Two specs first, then all four: the later specs append root
        # edges behind an index the earlier walks already built.
        for step in range(240):
            specs = self.SPECS[:2] if step < 120 else self.SPECS
            learner.observe(specs[step % len(specs)].generate_conversation(rng))
            if step % 20 == 0:
                _assert_index_matches_reference(learner.model, probe_rng)
            if step == 119:
                indexed_root_edges = len(root.edges)
        learner.flush()
        assert 0 < indexed_root_edges < len(root.edges)
        _assert_index_matches_reference(learner.model, probe_rng)

    def test_pickle_carries_no_index(self):
        learner = FSMLearner(refine_threshold=12, min_support=3)
        rng = random.Random(9)
        for step in range(120):
            learner.observe(self.SPECS[step % len(self.SPECS)].generate_conversation(rng))
        learner.flush()
        model = learner.model
        conversations = [
            self.SPECS[step % len(self.SPECS)].generate_conversation(rng) for step in range(30)
        ]
        expected = [model.classify(c) for c in conversations]
        assert "_by_length" in model.root.__dict__  # the walks built it
        payload = pickle.dumps(model)
        assert b"_by_length" not in payload and b"_indexed_edges" not in payload
        restored = pickle.loads(payload)
        assert all("_by_length" not in node.__dict__ for node in _iter_nodes(restored))
        assert [restored.classify(c) for c in conversations] == expected
        _assert_index_matches_reference(restored, random.Random(10))
