"""Tests for pattern discovery and most-specific classification (phases 3-4)."""

import pytest

from repro.core.invariants import InvariantPolicy, discover_invariants
from repro.core.patterns import (
    WILDCARD,
    PatternSet,
    format_pattern,
    generalizes,
    mask_instance,
    pattern_matches,
    specificity,
)
from repro.util.validation import ValidationError

from tests.helpers import matching_patterns

LOOSE = InvariantPolicy(min_instances=2, min_sources=1, min_sensors=1)


def build_invariants(instances, n_features, policy=LOOSE):
    observations = [(tuple(values), 0, 0) for values in instances]
    return discover_invariants(observations, [f"f{i}" for i in range(n_features)], policy)


class TestWildcard:
    def test_singleton(self):
        from repro.core.patterns import _Wildcard

        assert _Wildcard() is WILDCARD

    def test_repr(self):
        assert repr(WILDCARD) == "*"


class TestMasking:
    def test_invariants_kept_rest_wildcarded(self):
        instances = [("a", f"r{i}") for i in range(5)]
        invariants = build_invariants(instances, 2)
        assert mask_instance(("a", "r0"), invariants) == ("a", WILDCARD)

    def test_arity_checked(self):
        invariants = build_invariants([("a",)], 1)
        with pytest.raises(ValidationError):
            mask_instance(("a", "b"), invariants)


class TestPatternAlgebra:
    def test_matches_with_wildcards(self):
        assert pattern_matches((WILDCARD, 2, 3), (1, 2, 3))
        assert pattern_matches((WILDCARD, WILDCARD, 3), (1, 2, 3))
        assert not pattern_matches((WILDCARD, 9, 3), (1, 2, 3))

    def test_specificity(self):
        assert specificity((WILDCARD, WILDCARD)) == 0
        assert specificity(("a", WILDCARD)) == 1
        assert specificity(("a", "b")) == 2

    def test_generalizes(self):
        assert generalizes((WILDCARD, 2), (1, 2))
        assert generalizes((WILDCARD, WILDCARD), (1, 2))
        assert not generalizes((3, WILDCARD), (1, 2))
        assert not generalizes((1, 2), (WILDCARD, 2))

    def test_format(self):
        text = format_pattern(("a", WILDCARD), ["x", "y"])
        assert text == "{x='a', y=*}"


class TestDiscovery:
    def test_paper_example_multiple_matches(self):
        # The paper's example: instance (1, 2, 3) is matched by both
        # (*, 2, 3) and (*, *, 3); classification takes the most specific.
        instances = (
            [(f"u{i}", 2, 3) for i in range(4)]  # feature 0 random, 1+2 fixed
            + [(f"w{i}", f"x{i}", 3) for i in range(4)]  # only feature 2 fixed
        )
        invariants = build_invariants(instances, 3)
        patterns = PatternSet.discover(instances, invariants)
        assert (WILDCARD, 2, 3) in patterns
        assert (WILDCARD, WILDCARD, 3) in patterns
        matched = matching_patterns(patterns, ("u9", 2, 3))
        assert matched[0] == (WILDCARD, 2, 3)
        assert (WILDCARD, WILDCARD, 3) in matched
        assert patterns.classify(("u9", 2, 3), invariants) == (WILDCARD, 2, 3)

    def test_distinct_masks_distinct_patterns(self):
        instances = [("a", "x")] * 3 + [("b", "x")] * 3
        invariants = build_invariants(instances, 2)
        patterns = PatternSet.discover(instances, invariants)
        assert ("a", "x") in patterns
        assert ("b", "x") in patterns

    def test_support_counted(self):
        instances = [("a", "x")] * 5 + [("b", "x")] * 2
        invariants = build_invariants(instances, 2)
        patterns = PatternSet.discover(instances, invariants)
        assert patterns.support_of(("a", "x")) == 5

    def test_min_support_prunes(self):
        instances = [("a", "x")] * 5 + [("b", "y")] * 2
        invariants = build_invariants(instances, 2)
        patterns = PatternSet.discover(instances, invariants, min_support=3)
        assert ("a", "x") in patterns
        assert ("b", "y") not in patterns

    def test_root_always_present(self):
        instances = [("a", "x")] * 5
        invariants = build_invariants(instances, 2)
        patterns = PatternSet.discover(instances, invariants, min_support=100)
        assert (WILDCARD, WILDCARD) in patterns

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            PatternSet({})


class TestClassification:
    def test_own_mask_is_most_specific(self):
        instances = [("a", "x"), ("a", "x"), ("a", "y"), ("a", "y"), ("a", "y")]
        invariants = build_invariants(instances, 2)
        patterns = PatternSet.discover(instances, invariants)
        assert patterns.classify(("a", "y"), invariants) == ("a", "y")

    def test_pruned_mask_falls_back_to_general(self):
        instances = [("a", "x")] * 6 + [("a", "zz")] * 2
        invariants = build_invariants(instances, 2)
        patterns = PatternSet.discover(instances, invariants, min_support=3)
        # ("a","zz") was pruned; ("a", *)? not discovered either (mask of
        # 'zz' instances is ("a", "zz") since "zz" is invariant at n=2...)
        result = patterns.classify(("a", "zz"), invariants)
        assert result in {("a", WILDCARD), (WILDCARD, WILDCARD)}

    def test_unseen_instance_classified(self):
        instances = [("a", "x")] * 5
        invariants = build_invariants(instances, 2)
        patterns = PatternSet.discover(instances, invariants)
        result = patterns.classify(("q", "q2"), invariants)
        assert result == (WILDCARD, WILDCARD)

    def test_classification_total_and_deterministic(self):
        instances = [(f"v{i % 3}", f"w{i % 2}") for i in range(30)]
        invariants = build_invariants(instances, 2)
        patterns = PatternSet.discover(instances, invariants)
        for instance in instances:
            a = patterns.classify(instance, invariants)
            b = patterns.classify(instance, invariants)
            assert a == b
            assert pattern_matches(a, instance)

    def test_patterns_ranked_most_specific_first(self):
        instances = [("a", "x")] * 3 + [(f"r{i}", "x") for i in range(3)]
        invariants = build_invariants(instances, 2)
        patterns = PatternSet.discover(instances, invariants)
        ranks = [specificity(p) for p in patterns.patterns]
        assert ranks == sorted(ranks, reverse=True)


class TestScanFallback:
    """Instances whose own mask is absent classify through the scan."""

    def _novel_probe_set(self):
        # Invariants that keep every probe value, paired with a
        # hand-built set missing the probes' masks — so classify()
        # must scan rather than take the own-mask shortcut (a
        # fully-novel probe would mask to the root, which is always
        # present).
        instances = [("a", "x")] * 4 + [
            ("a", value) for value in ("zz", "zz", "zz2", "zz2")
        ]
        invariants = build_invariants(instances, 2)
        patterns = PatternSet(
            {("a", "x"): 4, ("a", WILDCARD): 4, (WILDCARD, WILDCARD): 0}
        )
        return patterns, invariants

    def test_novel_probe_classifies_to_scan_answer(self):
        patterns, invariants = self._novel_probe_set()
        for probe in (("a", "zz"), ("a", "zz2")):
            answer = patterns.classify(probe, invariants)
            assert answer == patterns.scan_classify(probe) == ("a", WILDCARD)

    def test_own_mask_fast_path(self):
        patterns, invariants = self._novel_probe_set()
        assert patterns.classify(("a", "x"), invariants) == ("a", "x")


class TestTieBreaking:
    def test_equal_specificity_support_wins(self):
        # (a, *) and (*, x) both match (a, x); higher support ranks first.
        instances = [("a", "x")] * 4
        invariants = build_invariants(instances, 2)
        tie = PatternSet(
            {("a", WILDCARD): 5, (WILDCARD, "x"): 2, (WILDCARD, WILDCARD): 0}
        )
        assert tie.scan_classify(("a", "x")) == ("a", WILDCARD)
        flipped = PatternSet(
            {("a", WILDCARD): 2, (WILDCARD, "x"): 5, (WILDCARD, WILDCARD): 0}
        )
        assert flipped.scan_classify(("a", "x")) == (WILDCARD, "x")
        assert tie.classify(("a", "x"), invariants) == ("a", WILDCARD)

    def test_equal_specificity_equal_support_repr_decides(self):
        instances = [("a", "x")] * 4
        invariants = build_invariants(instances, 2)
        tie = PatternSet(
            {("a", WILDCARD): 3, (WILDCARD, "x"): 3, (WILDCARD, WILDCARD): 0}
        )
        # Deterministic either way: repr ascending breaks the dead heat.
        expected = min(("a", WILDCARD), (WILDCARD, "x"), key=repr)
        assert tie.scan_classify(("a", "x")) == expected
        assert tie.classify(("a", "x"), invariants) == expected

    def test_all_wildcard_only_set_total(self):
        instances = [("a", "x")] * 4
        invariants = build_invariants(instances, 2)
        root_only = PatternSet({(WILDCARD, WILDCARD): 4})
        assert root_only.classify(("q1", "q2"), invariants) == (
            WILDCARD,
            WILDCARD,
        )

    def test_scan_arity_mismatch_never_matches(self):
        rootless = PatternSet({("a", "x"): 2})
        with pytest.raises(ValueError):
            rootless.scan_classify(("a", "x", "extra"))
