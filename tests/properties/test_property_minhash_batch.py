"""Hypothesis property tests: batched MinHash == per-profile MinHash.

The batch kernel (:meth:`MinHasher.signature_matrix`) must reproduce
the scalar :meth:`MinHasher.signature` bit for bit: the 61-bit family
is reproduced in uint64 via limb-split modular multiplication.  The
LSH clustering digests rest on the two paths agreeing exactly.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sandbox.lsh import MinHasher

feature_set = st.sets(st.integers(min_value=0, max_value=2**64 - 1), max_size=40)
feature_batches = st.lists(feature_set, min_size=1, max_size=12)


class TestSignatureMatrixProperties:
    @given(feature_batches, st.integers(min_value=1, max_value=48))
    @settings(max_examples=80, deadline=None)
    def test_matrix_rows_match_scalar_signatures(self, batch, n_hashes):
        """Row i of the batch == signature(batch[i]), bit for bit."""
        hasher = MinHasher(n_hashes)
        # Fix iteration order so both paths consume the same sequence.
        ordered = [sorted(items) for items in batch]
        matrix = hasher.signature_matrix(ordered)
        assert matrix.shape == (len(batch), n_hashes)
        assert matrix.dtype == np.uint64
        for row, items in zip(matrix, ordered):
            assert tuple(int(v) for v in row) == hasher.signature(items)

    def test_empty_sets_get_sentinel_rows(self):
        hasher = MinHasher(8)
        matrix = hasher.signature_matrix([[], [1, 2], []])
        sentinel = hasher.signature([])
        assert tuple(int(v) for v in matrix[0]) == sentinel
        assert tuple(int(v) for v in matrix[2]) == sentinel
        assert tuple(int(v) for v in matrix[1]) == hasher.signature([1, 2])

    @given(feature_batches)
    @settings(max_examples=40, deadline=None)
    def test_batch_split_invariance(self, batch):
        """Batching is per-row: any split of the batch yields the
        same rows (no cross-profile leakage through the flat layout)."""
        hasher = MinHasher(16)
        ordered = [sorted(items) for items in batch]
        whole = hasher.signature_matrix(ordered)
        half = len(ordered) // 2
        parts = [
            hasher.signature_matrix(ordered[:half]),
            hasher.signature_matrix(ordered[half:]),
        ]
        assert np.array_equal(whole, np.concatenate(parts))
