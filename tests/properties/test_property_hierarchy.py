"""Hypothesis property tests for attribute-oriented induction."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hierarchy import ANY, AOIMiner, Concept, Taxonomy, band_taxonomy

values = st.sampled_from(["a", "b", "c", "d"])
numbers = st.integers(min_value=0, max_value=40)
instances2 = st.lists(st.tuples(values, numbers), min_size=1, max_size=80)


class TestAOIProperties:
    @given(instances2, st.integers(min_value=1, max_value=12))
    @settings(max_examples=60, deadline=None)
    def test_total_assignment_conserved(self, instances, min_size):
        result = AOIMiner(["k", "v"], min_size=min_size).fit(instances)
        assert len(result.assignment) == len(instances)
        assert sum(result.support.values()) == len(instances)

    @given(instances2, st.integers(min_value=1, max_value=12))
    @settings(max_examples=60, deadline=None)
    def test_support_floor_or_fully_general(self, instances, min_size):
        result = AOIMiner(["k", "v"], min_size=min_size).fit(instances)
        for pattern, support in result.support.items():
            assert support >= min_size or all(v is ANY for v in pattern)

    @given(instances2, st.integers(min_value=1, max_value=12))
    @settings(max_examples=60, deadline=None)
    def test_assignment_generalizes_instance(self, instances, min_size):
        taxonomy = band_taxonomy(range(41), width=10, label="v")
        miner = AOIMiner(["k", "v"], {"v": taxonomy}, min_size=min_size)
        result = miner.fit(instances)
        for index, instance in enumerate(instances):
            pattern = result.assignment[index]
            assert pattern[0] == instance[0] or pattern[0] is ANY
            assert taxonomy.covers(pattern[1], instance[1])

    @given(instances2)
    @settings(max_examples=60, deadline=None)
    def test_min_size_one_is_identity(self, instances):
        result = AOIMiner(["k", "v"], min_size=1).fit(instances)
        assert set(result.patterns) == set(map(tuple, instances))

    @given(instances2, st.integers(min_value=2, max_value=10))
    @settings(max_examples=40, deadline=None)
    def test_pattern_count_antitone_in_min_size(self, instances, min_size):
        small = AOIMiner(["k", "v"], min_size=1).fit(instances)
        large = AOIMiner(["k", "v"], min_size=min_size).fit(instances)
        assert large.n_patterns <= small.n_patterns


class TestTaxonomyProperties:
    @given(numbers, st.integers(min_value=1, max_value=20))
    @settings(max_examples=100)
    def test_band_contains_value(self, value, width):
        taxonomy = band_taxonomy([value], width=width, label="x")
        concept = taxonomy.generalize(value)
        assert isinstance(concept, Concept)
        lo, hi = concept.name.split(":")[1].split("-")
        assert int(lo) <= value <= int(hi)

    @given(numbers)
    @settings(max_examples=50)
    def test_levels_strictly_decrease(self, value):
        taxonomy = band_taxonomy([value], width=10, label="x")
        concept = taxonomy.generalize(value)
        assert concept is not ANY
        assert taxonomy.generalize(concept) is ANY
