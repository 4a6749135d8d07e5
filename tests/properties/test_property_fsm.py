"""Hypothesis property tests for ScriptGen FSM learning."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.honeypot.fsm import FSMLearner, UNKNOWN_PATH_ID, region_analysis
from repro.malware.propagation import ExploitSpec, Token, fixed, rand

from tests.helpers import observe


@st.composite
def exploit_specs(draw, name):
    """Random exploit dialogues mixing fixed and random tokens."""
    n_messages = draw(st.integers(min_value=1, max_value=3))
    dialogue = []
    for m in range(n_messages):
        tokens: list[Token] = [fixed(f"{name}-VERB{m}")]
        if draw(st.booleans()):
            tokens.append(rand(draw(st.integers(min_value=3, max_value=8))))
        if draw(st.booleans()):
            tokens.append(fixed(f"{name}-ARG{m}"))
        dialogue.append(tuple(tokens))
    return ExploitSpec(name=name, dst_port=445, dialogue=tuple(dialogue))


class TestLearnerProperties:
    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_learned_classification_is_stable(self, data):
        spec = data.draw(exploit_specs("a"))
        learner = FSMLearner(refine_threshold=12, min_support=4)
        rng = random.Random(data.draw(st.integers(0, 100)))
        for _ in range(40):
            observe(learner, spec.generate_conversation(rng))
        learner.flush()
        paths = {
            learner.classify(spec.generate_conversation(rng)) for _ in range(15)
        }
        paths.discard(UNKNOWN_PATH_ID)
        # One spec without choice tokens -> at most one learned path.
        assert len(paths) <= 1

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_distinct_specs_never_conflated(self, data):
        spec_a = data.draw(exploit_specs("a"))
        spec_b = data.draw(exploit_specs("b"))
        learner = FSMLearner(refine_threshold=12, min_support=4)
        rng = random.Random(data.draw(st.integers(0, 100)))
        for _ in range(40):
            observe(learner, spec_a.generate_conversation(rng))
            observe(learner, spec_b.generate_conversation(rng))
        learner.flush()
        path_a = learner.classify(spec_a.generate_conversation(rng))
        path_b = learner.classify(spec_b.generate_conversation(rng))
        if UNKNOWN_PATH_ID not in (path_a, path_b):
            # Distinct fixed verbs guarantee distinct paths once learned.
            assert path_a != path_b

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_observe_then_classify_converges(self, data):
        spec = data.draw(exploit_specs("a"))
        learner = FSMLearner(refine_threshold=10, min_support=3)
        rng = random.Random(1)
        results = [
            observe(learner, spec.generate_conversation(rng)) for _ in range(60)
        ]
        # Once a conversation classifies, it keeps classifying.
        first_known = next(
            (i for i, r in enumerate(results) if r != UNKNOWN_PATH_ID), None
        )
        assert first_known is not None
        assert all(r != UNKNOWN_PATH_ID for r in results[first_known:])


class TestRegionAnalysisProperties:
    tokens = st.sampled_from(["A", "B", "C", "x1", "x2"])

    @given(
        st.lists(
            st.tuples(tokens, tokens), min_size=4, max_size=60
        ),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=60)
    def test_patterns_cover_at_least_support(self, messages, min_support):
        patterns = region_analysis(messages, min_support)
        for pattern in patterns:
            from repro.honeypot.fsm import pattern_matches

            covered = sum(1 for m in messages if pattern_matches(pattern, m))
            assert covered >= min_support

    @given(st.lists(st.tuples(tokens, tokens), min_size=1, max_size=40))
    @settings(max_examples=60)
    def test_patterns_distinct(self, messages):
        patterns = region_analysis(messages, 2)
        assert len(patterns) == len(set(patterns))

    @given(st.lists(st.tuples(tokens), min_size=4, max_size=40))
    @settings(max_examples=40)
    def test_single_position_messages(self, messages):
        patterns = region_analysis(messages, 3)
        for pattern in patterns:
            assert len(pattern) == 1
