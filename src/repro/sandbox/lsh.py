"""MinHash signatures and locality-sensitive hashing for Jaccard similarity.

Bayer et al. (NDSS 2009) scale behaviour clustering past the O(n^2)
distance matrix by MinHash-LSH: each profile's feature set is reduced to
a signature of ``n_hashes`` minima under universal hash functions; the
signature is sliced into ``bands`` of ``rows`` values; profiles sharing
any band land in the same candidate bucket and only candidate pairs get
an exact similarity check.  With rows=r and bands=b, a pair of Jaccard
similarity s collides with probability 1-(1-s^r)^b — a sigmoid centred
near (1/b)^(1/r), tuned here to the clustering threshold.

One hash family is used, over the 61-bit Mersenne prime.  The scalar
:meth:`MinHasher.signature` is the reference; the pipeline computes the
same values in batch with :meth:`MinHasher.signature_matrix`, which
reproduces the 61-bit arithmetic exactly in uint64.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations
from typing import Hashable, Iterable, Sequence

import numpy as np

from repro.util.rng import spawn_rng
from repro.util.validation import require

_MERSENNE_PRIME = (1 << 61) - 1
_MAX_HASH = (1 << 61) - 2


class MinHasher:
    """A family of ``n_hashes`` universal hash functions over 64-bit ids."""

    def __init__(self, n_hashes: int = 80, *, seed: int = 2010) -> None:
        require(n_hashes >= 1, "n_hashes must be >= 1")
        self.n_hashes = n_hashes
        rng = spawn_rng(seed, "minhash-coefficients")
        self._a = [rng.randrange(1, _MERSENNE_PRIME) for _ in range(n_hashes)]
        self._b = [rng.randrange(0, _MERSENNE_PRIME) for _ in range(n_hashes)]

    def signature(self, hashed_features: Iterable[int]) -> tuple[int, ...]:
        """MinHash signature of a set of stable 64-bit feature hashes.

        The empty set gets a sentinel all-max signature (never collides
        with anything non-empty).
        """
        items = list(hashed_features)
        if not items:
            return tuple([_MAX_HASH + 1] * self.n_hashes)
        signature = []
        for a, b in zip(self._a, self._b):
            signature.append(
                min(((a * x + b) % _MERSENNE_PRIME) & _MAX_HASH for x in items)
            )
        return tuple(signature)

    def signature_matrix(
        self, feature_sets: Sequence[Iterable[int]]
    ) -> np.ndarray:
        """Batched signatures: one ``(n_profiles, n_hashes)`` uint64 matrix.

        Row ``i`` is bit-identical to ``signature(feature_sets[i])``
        (empty sets get the all-sentinel row).  The batch
        evaluates every hash function over the concatenation of all
        feature sets and takes per-profile segment minima with
        ``np.minimum.reduceat`` — one pass over the data instead of a
        Python loop per profile.  The 61-bit family is reproduced
        exactly in uint64 via limb-split modular multiplication (see
        :meth:`_matrix_python`).
        """
        sets = [list(fs) for fs in feature_sets]
        out = np.full((len(sets), self.n_hashes), _MAX_HASH + 1, dtype=np.uint64)
        nonempty = [i for i, items in enumerate(sets) if items]
        if not nonempty:
            return out
        lengths = np.array([len(sets[i]) for i in nonempty], dtype=np.intp)
        flat = np.concatenate(
            [np.array(sets[i], dtype=np.uint64) for i in nonempty]
        )
        offsets = np.zeros(len(nonempty), dtype=np.intp)
        np.cumsum(lengths[:-1], out=offsets[1:])
        out[nonempty] = self._matrix_python(flat, offsets)
        return out

    def _matrix_python(self, flat: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """Segment minima of the 61-bit family, exactly, in uint64.

        ``(a*x + b) % p`` with ``p = 2^61 - 1`` overflows 64-bit words,
        so ``a`` and ``x mod p`` are split into 31/30-bit limbs and the
        product is reduced with ``2^61 ≡ 1 (mod p)``:

            a*x = a1*x1*2^62 + (a1*x0 + a0*x1)*2^31 + a0*x0

        where each partial product and every intermediate sum stays
        below 2^63.  The per-value ``& _MAX_HASH`` of the scalar path is
        applied before the minimum, matching :meth:`signature` bit for
        bit.
        """
        p = np.uint64(_MERSENNE_PRIME)
        mask = np.uint64(_MAX_HASH)
        # x mod p: p is the 61-bit mask, so x = (x >> 61)*2^61 + (x & p).
        x = (flat >> np.uint64(61)) + (flat & p)
        x = np.where(x >= p, x - p, x)
        x1 = x >> np.uint64(31)  # < 2^30
        x0 = x & np.uint64((1 << 31) - 1)  # < 2^31
        mins = np.empty((len(offsets), self.n_hashes), dtype=np.uint64)
        for k, (a, b) in enumerate(zip(self._a, self._b)):
            a1 = np.uint64(a >> 31)  # < 2^30
            a0 = np.uint64(a & ((1 << 31) - 1))  # < 2^31
            # a1*x1*2^62 ≡ 2*a1*x1 (mod p); the product is < 2^61.
            t1 = (np.uint64(2) * a1 * x1) % p
            # Middle limb: t*2^31 with t < 2^62; split t at 30 bits so
            # t*2^31 = th*2^61 + tl*2^31 ≡ th + tl*2^31 (mod p).
            t = a1 * x0 + a0 * x1
            t2 = (t >> np.uint64(30)) + ((t & np.uint64((1 << 30) - 1)) << np.uint64(31))
            t2 = np.where(t2 >= p, t2 - p, t2)
            t3 = (a0 * x0) % p
            # Each term is < p and b < p, so the sum stays below 4p < 2^63.
            h = ((t1 + t2 + t3 + np.uint64(b)) % p) & mask
            mins[:, k] = np.minimum.reduceat(h, offsets)
        return mins


class LSHIndex:
    """Banded LSH index over MinHash signatures.

    ``bands * rows`` must equal the signature length.  :meth:`add` files
    each item under one bucket per band; :meth:`candidate_pairs` returns
    every pair sharing at least one bucket.

    A bucket of size k emits k*(k-1)/2 pairs, so one degenerate
    mega-bucket (e.g. many empty-profile sentinels under a skewed hash
    family) can silently turn candidate generation quadratic.
    ``max_bucket_size`` guards against that: buckets larger than the
    bound contribute *no* pairs and are counted in
    :attr:`skipped_buckets` instead (surfaced as the
    ``lsh.buckets_skipped`` metric by the clustering pipeline).  The
    default ``None`` keeps every bucket — the paper-scale pipeline
    relies on exact pair emission for digest stability.
    """

    def __init__(
        self,
        *,
        bands: int = 10,
        rows: int = 8,
        max_bucket_size: int | None = None,
    ) -> None:
        require(bands >= 1 and rows >= 1, "bands and rows must be >= 1")
        require(
            max_bucket_size is None or max_bucket_size >= 2,
            "max_bucket_size must be >= 2 (or None to disable the guard)",
        )
        self.bands = bands
        self.rows = rows
        self.max_bucket_size = max_bucket_size
        self.skipped_buckets = 0
        self._buckets: list[dict[tuple[int, ...], list[Hashable]]] = [
            defaultdict(list) for _ in range(bands)
        ]

    @property
    def signature_length(self) -> int:
        """Required MinHash signature length."""
        return self.bands * self.rows

    def add(self, key: Hashable, signature: Sequence[int]) -> None:
        """Index one item's signature."""
        require(
            len(signature) == self.signature_length,
            f"signature length {len(signature)} != bands*rows {self.signature_length}",
        )
        for band in range(self.bands):
            chunk = tuple(signature[band * self.rows : (band + 1) * self.rows])
            self._buckets[band][chunk].append(key)

    def candidate_pairs(self) -> set[tuple[Hashable, Hashable]]:
        """All distinct pairs sharing at least one band bucket.

        Pairs are emitted once per bucket via ``itertools.combinations``
        over the sort-ordered members; buckets above ``max_bucket_size``
        (when set) are skipped and tallied in :attr:`skipped_buckets`.
        """
        pairs: set[tuple[Hashable, Hashable]] = set()
        self.skipped_buckets = 0
        for band_buckets in self._buckets:
            for bucket in band_buckets.values():
                if len(bucket) < 2:
                    continue
                if (
                    self.max_bucket_size is not None
                    and len(bucket) > self.max_bucket_size
                ):
                    self.skipped_buckets += 1
                    continue
                pairs.update(combinations(sorted(bucket, key=repr), 2))
        return pairs

    def bucket_sizes(self) -> list[int]:
        """Occupancy of every bucket across all bands (the ``lsh.bucket_size`` input)."""
        return [
            len(bucket) for band_buckets in self._buckets for bucket in band_buckets.values()
        ]
