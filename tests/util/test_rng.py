"""Tests for the deterministic RNG discipline."""

import pytest

from repro.util.rng import RandomSource, derive_seed, spawn_rng
from repro.util.validation import ValidationError


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", "b") == derive_seed(1, "a", "b")

    def test_name_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_seed_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_path_order_matters(self):
        assert derive_seed(1, "a", "b") != derive_seed(1, "b", "a")

    def test_no_concatenation_ambiguity(self):
        # ("ab", "c") must differ from ("a", "bc"): names are length-framed.
        assert derive_seed(1, "ab", "c") != derive_seed(1, "a", "bc")

    def test_int_names_accepted(self):
        assert derive_seed(1, 0) != derive_seed(1, 1)

    def test_is_64_bit(self):
        assert 0 <= derive_seed(7, "x") < 2**64

    def test_negative_seed_ok(self):
        assert derive_seed(-5, "x") != derive_seed(5, "x")

    def test_rejects_non_int_seed(self):
        with pytest.raises(ValidationError):
            derive_seed("nope", "x")  # type: ignore[arg-type]


class TestSpawnRng:
    def test_reproducible_stream(self):
        a = spawn_rng(3, "stream")
        b = spawn_rng(3, "stream")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_distinct_streams_diverge(self):
        a = spawn_rng(3, "one")
        b = spawn_rng(3, "two")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


class TestRandomSource:
    def test_child_namespacing(self):
        root = RandomSource(9)
        assert root.child("x").rng("y").random() == RandomSource(9).rng("x", "y").random()

    def test_children_independent(self):
        root = RandomSource(9)
        a = root.child("a").rng("draw").random()
        b = root.child("b").rng("draw").random()
        assert a != b

    def test_numpy_generator_deterministic(self):
        root = RandomSource(4)
        x = root.numpy("np").normal(size=3)
        y = RandomSource(4).numpy("np").normal(size=3)
        assert (x == y).all()

    def test_choice_empty_raises(self):
        with pytest.raises(ValueError):
            RandomSource(1).choice([], "c")

    def test_choice_deterministic(self):
        items = ["a", "b", "c", "d"]
        assert RandomSource(1).choice(items, "c") == RandomSource(1).choice(items, "c")

    def test_path_property(self):
        assert RandomSource(1).child("a", "b").path == ("a", "b")

    def test_seed_property(self):
        assert RandomSource(42).seed == 42
