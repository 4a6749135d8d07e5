"""Tests for taxonomy-based attribute-oriented induction."""

import pytest

from repro.core.hierarchy import (
    ANY,
    AOIMiner,
    Concept,
    Taxonomy,
    band_taxonomy,
    flat_taxonomy,
)
from repro.util.validation import ValidationError


class TestTaxonomy:
    def test_flat_generalizes_to_any(self):
        taxonomy = flat_taxonomy()
        assert taxonomy.generalize("anything") is ANY
        assert taxonomy.generalize(ANY) is ANY

    def test_two_level(self):
        taxonomy = Taxonomy({445: Concept("netbios"), 139: Concept("netbios")})
        assert taxonomy.generalize(445) == Concept("netbios")
        assert taxonomy.generalize(Concept("netbios")) is ANY

    def test_covers(self):
        taxonomy = Taxonomy({445: Concept("netbios"), 139: Concept("netbios")})
        assert taxonomy.covers(Concept("netbios"), 445)
        assert taxonomy.covers(ANY, 445)
        assert taxonomy.covers(445, 445)
        assert not taxonomy.covers(Concept("netbios"), 80)
        assert not taxonomy.covers(445, 139)

    def test_cycle_rejected(self):
        with pytest.raises(ValidationError, match="cycle"):
            Taxonomy({"a": "b", "b": "a"})

    def test_band_taxonomy(self):
        taxonomy = band_taxonomy([5, 17, 25], width=10, label="size")
        assert taxonomy.generalize(5) == Concept("size:0-9")
        assert taxonomy.generalize(17) == Concept("size:10-19")
        assert taxonomy.generalize(Concept("size:0-9")) is ANY

    def test_band_width_validated(self):
        with pytest.raises(ValidationError):
            band_taxonomy([1], width=0, label="x")


class TestAOIMiner:
    def test_strong_patterns_survive_verbatim(self):
        instances = [("a", 445)] * 10 + [("b", 139)] * 10
        result = AOIMiner(["user", "port"], min_size=5).fit(instances)
        assert ("a", 445) in result.patterns
        assert ("b", 139) in result.patterns

    def test_weak_patterns_generalized(self):
        instances = [("a", 445)] * 10 + [("z", 139)] * 2
        result = AOIMiner(["user", "port"], min_size=5).fit(instances)
        # The weak pattern generalizes away from ('z', 139).
        assert ("z", 139) not in result.patterns

    def test_taxonomy_merges_weak_siblings(self):
        # Two weak patterns on netbios ports merge at the service-class
        # level instead of collapsing to ANY.
        instances = [("scan", 445)] * 4 + [("scan", 139)] * 4 + [("web", 80)] * 12
        result = AOIMiner(
            ["tool", "port"],
            {"port": Taxonomy({445: Concept("netbios-class"), 139: Concept("netbios-class")})},
            min_size=6,
        ).fit(instances)
        assert ("scan", Concept("netbios-class")) in result.patterns
        assert ("web", 80) in result.patterns

    def test_flat_taxonomy_reduces_to_epm_style(self):
        instances = [("a", 1), ("a", 2), ("a", 3), ("a", 4), ("a", 5)]
        result = AOIMiner(["k", "v"], min_size=3).fit(instances)
        assert result.patterns == [("a", ANY)]

    def test_every_instance_assigned(self):
        instances = [("a", i % 3) for i in range(20)]
        result = AOIMiner(["k", "v"], min_size=4).fit(instances)
        assert len(result.assignment) == 20
        assert sum(result.support.values()) == 20

    def test_support_floor_met_or_root(self):
        instances = [(f"u{i}", i) for i in range(7)]  # all unique
        result = AOIMiner(["k", "v"], min_size=5).fit(instances)
        for pattern, support in result.support.items():
            assert support >= 5 or pattern == (ANY, ANY)

    def test_root_pattern_when_nothing_repeats(self):
        instances = [(f"u{i}", i) for i in range(4)]
        result = AOIMiner(["k", "v"], min_size=10).fit(instances)
        assert result.patterns == [(ANY, ANY)]

    def test_describe(self):
        instances = [("a", 1)] * 5
        result = AOIMiner(["k", "v"], min_size=3).fit(instances)
        assert result.describe(("a", ANY)) == "{k='a', v=ANY}"

    def test_arity_checked(self):
        with pytest.raises(ValidationError):
            AOIMiner(["k"], min_size=1).fit([("a", "b")])

    def test_min_size_one_keeps_everything(self):
        instances = [("a", 1), ("b", 2)]
        result = AOIMiner(["k", "v"], min_size=1).fit(instances)
        assert set(result.patterns) == {("a", 1), ("b", 2)}


class TestAOIOnDataset:
    def test_size_banding_on_mu(self, small_run):
        """AOI with a size-band taxonomy groups truncated junk by band."""
        from repro.core.features import mu_features

        feature_set = mu_features()
        names = feature_set.names
        instances = [
            feature_set.extract(e)
            for e in small_run.dataset
            if feature_set.applies_to(e)
        ]
        sizes = [values[names.index("size")] for values in instances]
        miner = AOIMiner(
            names,
            {"size": band_taxonomy(sizes, width=8192, label="size")},
            min_size=10,
        )
        result = miner.fit(instances)
        assert result.n_patterns > 10
        banded = [
            p
            for p in result.patterns
            if isinstance(p[names.index("size")], Concept)
        ]
        assert banded, "some weak patterns should stop at the band level"
