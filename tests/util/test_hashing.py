"""Tests for hashing helpers."""

import hashlib

from repro.util.hashing import md5_hex, stable_hash64


class TestMd5Hex:
    def test_matches_hashlib(self):
        assert md5_hex(b"abc") == hashlib.md5(b"abc").hexdigest()

    def test_length(self):
        assert len(md5_hex(b"")) == 32

    def test_distinct_inputs(self):
        assert md5_hex(b"a") != md5_hex(b"b")


class TestStableHash64:
    def test_deterministic(self):
        assert stable_hash64("abc") == stable_hash64("abc")

    def test_sensitivity(self):
        assert stable_hash64("abc") != stable_hash64("abd")

    def test_salt_changes_value(self):
        assert stable_hash64("abc", salt="s1") != stable_hash64("abc", salt="s2")

    def test_salt_boundary_unambiguous(self):
        # salt="ab", text="c" must differ from salt="a", text="bc"
        assert stable_hash64("c", salt="ab") != stable_hash64("bc", salt="a")

    def test_range(self):
        assert 0 <= stable_hash64("anything") < 2**64
