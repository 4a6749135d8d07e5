"""Behaviour-based clustering (B-clusters) per Bayer et al., NDSS 2009.

The pipeline avoids the O(n^2) distance matrix in two steps that mirror
the published system:

1. **exact-duplicate pre-grouping** — samples with byte-identical
   feature sets (polymorphic instances of one codebase) collapse to one
   representative each;
2. **MinHash-LSH candidate generation** over the unique profiles,
   followed by exact Jaccard verification of candidate pairs and
   single-linkage grouping at threshold ``t`` (single-linkage
   hierarchical clustering cut at distance 1-t is exactly the connected
   components of the >=t similarity graph, computed here with
   union-find).

:func:`cluster_exact` is the quadratic reference implementation used by
tests and the scalability benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Mapping, Sequence

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs.trace import current_tracer
from repro.sandbox.behavior import BehaviorProfile
from repro.sandbox.lsh import LSHIndex, MinHasher
from repro.util.stats import jaccard
from repro.util.validation import require, require_probability


@dataclass(frozen=True)
class ClusteringConfig:
    """Similarity threshold and LSH shape.

    The NDSS'09 system clusters at Jaccard similarity t=0.7.  The
    banding must put the collision sigmoid safely *below* the clustering
    threshold so that true >=0.7 pairs are found with high probability:
    bands=20 x rows=5 collides a 0.7-similar pair with probability
    1-(1-0.7^5)^20 ~ 0.975 (and chains under single linkage push the
    effective recall higher still) while 0.3-similar pairs collide only
    ~5% of the time, keeping the candidate set small.
    """

    threshold: float = 0.7
    bands: int = 20
    rows: int = 5
    minhash_seed: int = 2010
    minhash_backend: str = "python"
    #: Candidate-generation guard: buckets larger than this emit no
    #: pairs (None keeps every bucket; see :class:`~repro.sandbox.lsh.LSHIndex`).
    max_bucket_size: int | None = None

    def __post_init__(self) -> None:
        require_probability(self.threshold, "threshold")
        require(self.bands >= 1 and self.rows >= 1, "bands/rows must be >= 1")
        require(
            self.minhash_backend in ("python", "numpy"),
            f"unknown minhash backend {self.minhash_backend!r}",
        )
        require(
            self.max_bucket_size is None or self.max_bucket_size >= 2,
            "max_bucket_size must be >= 2 (or None)",
        )

    @property
    def n_hashes(self) -> int:
        """MinHash signature length implied by the banding."""
        return self.bands * self.rows


class _UnionFind:
    def __init__(self, items: Sequence[Hashable]) -> None:
        self._parent = {item: item for item in items}
        self._rank = {item: 0 for item in items}

    def find(self, item: Hashable) -> Hashable:
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a: Hashable, b: Hashable) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self._rank[ra] < self._rank[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        if self._rank[ra] == self._rank[rb]:
            self._rank[ra] += 1

    def components(self) -> dict[Hashable, list[Hashable]]:
        groups: dict[Hashable, list[Hashable]] = {}
        for item in self._parent:
            groups.setdefault(self.find(item), []).append(item)
        return groups


@dataclass
class BehaviorClustering:
    """The result of a B-clustering run.

    ``assignment`` maps sample key -> B-cluster id; ``clusters`` maps
    B-cluster id -> sorted sample keys.  Cluster ids are dense integers
    ordered by decreasing cluster size (ties broken by smallest member).
    """

    assignment: dict[str, int]
    clusters: dict[int, list[str]] = field(default_factory=dict)
    n_exact_comparisons: int = 0
    n_candidate_pairs: int = 0

    @classmethod
    def from_assignment(
        cls,
        assignment: Mapping[str, int],
        *,
        n_exact_comparisons: int = 0,
        n_candidate_pairs: int = 0,
    ) -> "BehaviorClustering":
        """Normalise raw component labels into dense, size-ordered ids."""
        groups: dict[int, list[str]] = {}
        for key, label in assignment.items():
            groups.setdefault(label, []).append(key)
        ordered = sorted(groups.values(), key=lambda ms: (-len(ms), min(ms)))
        final_assignment: dict[str, int] = {}
        clusters: dict[int, list[str]] = {}
        for cluster_id, members in enumerate(ordered):
            clusters[cluster_id] = sorted(members)
            for member in members:
                final_assignment[member] = cluster_id
        return cls(
            assignment=final_assignment,
            clusters=clusters,
            n_exact_comparisons=n_exact_comparisons,
            n_candidate_pairs=n_candidate_pairs,
        )

    @property
    def n_clusters(self) -> int:
        """Number of B-clusters."""
        return len(self.clusters)

    def size_of(self, cluster_id: int) -> int:
        """Member count of one cluster."""
        return len(self.clusters[cluster_id])

    def singletons(self) -> list[int]:
        """Ids of size-1 clusters (the anomaly candidates of §4.2)."""
        return [cid for cid, members in self.clusters.items() if len(members) == 1]

    def sizes(self) -> dict[int, int]:
        """Cluster id -> size."""
        return {cid: len(members) for cid, members in self.clusters.items()}


def _dedupe(
    profiles: Mapping[str, BehaviorProfile],
) -> tuple[dict[frozenset, list[str]], list[frozenset]]:
    groups: dict[frozenset, list[str]] = {}
    for key, profile in profiles.items():
        groups.setdefault(profile.features, []).append(key)
    uniques = sorted(groups.keys(), key=lambda fs: (len(fs), sorted(fs)))
    return groups, uniques


def _expand(
    unique_labels: Mapping[int, int],
    uniques: list[frozenset],
    groups: dict[frozenset, list[str]],
) -> dict[str, int]:
    assignment: dict[str, int] = {}
    for index, features in enumerate(uniques):
        label = unique_labels[index]
        for key in groups[features]:
            assignment[key] = label
    return assignment


def cluster_exact(
    profiles: Mapping[str, BehaviorProfile],
    config: ClusteringConfig | None = None,
) -> BehaviorClustering:
    """Quadratic reference clustering: every unique-profile pair compared."""
    config = config or ClusteringConfig()
    groups, uniques = _dedupe(profiles)
    uf = _UnionFind(list(range(len(uniques))))
    comparisons = 0
    sets = [set(features) for features in uniques]
    for i in range(len(uniques)):
        for j in range(i + 1, len(uniques)):
            comparisons += 1
            if jaccard(sets[i], sets[j]) >= config.threshold:
                uf.union(i, j)
    labels = {i: uf.find(i) for i in range(len(uniques))}
    assignment = _expand(labels, uniques, groups)
    return BehaviorClustering.from_assignment(
        assignment, n_exact_comparisons=comparisons, n_candidate_pairs=comparisons
    )


def _verify_pairs_vectorized(
    feature_sets: Sequence[set],
    pairs: Sequence[tuple[int, int]],
    threshold: float,
) -> np.ndarray:
    """Exact-Jaccard verdicts for all candidate pairs, as one bool vector.

    Profiles are interned into a packed bit-matrix (one bit per distinct
    feature) and intersection sizes come from ``popcount(row_i & row_j)``
    over pair chunks.  The verdict for pair ``(i, j)`` equals
    ``jaccard(feature_sets[i], feature_sets[j]) >= threshold`` bit for
    bit: intersection and union are the same integers, and the float
    division is the same IEEE-754 operation :func:`jaccard` performs.
    """
    vocabulary: dict = {}
    rows = [
        [vocabulary.setdefault(feature, len(vocabulary)) for feature in fs]
        for fs in feature_sets
    ]
    matrix = np.zeros((len(feature_sets), max(1, len(vocabulary))), dtype=bool)
    for i, codes in enumerate(rows):
        matrix[i, codes] = True
    packed = np.packbits(matrix, axis=1)
    sizes = np.array([len(fs) for fs in feature_sets], dtype=np.int64)
    n_pairs = len(pairs)
    ii = np.fromiter((pair[0] for pair in pairs), dtype=np.intp, count=n_pairs)
    jj = np.fromiter((pair[1] for pair in pairs), dtype=np.intp, count=n_pairs)
    verdicts = np.empty(n_pairs, dtype=bool)
    chunk = 8192
    for start in range(0, n_pairs, chunk):
        stop = min(start + chunk, n_pairs)
        left, right = ii[start:stop], jj[start:stop]
        inter = np.bitwise_count(packed[left] & packed[right]).sum(
            axis=1, dtype=np.int64
        )
        union = sizes[left] + sizes[right] - inter
        # Two empty sets have Jaccard 1.0 by convention; guard the division.
        both_empty = union == 0
        similarity = np.where(
            both_empty, 1.0, inter / np.where(both_empty, 1, union)
        )
        verdicts[start:stop] = similarity >= threshold
    return verdicts


def cluster_lsh(
    profiles: Mapping[str, BehaviorProfile],
    config: ClusteringConfig | None = None,
) -> BehaviorClustering:
    """Scalable clustering: LSH candidates + exact verification + union-find.

    The hot paths run as batch numpy kernels: MinHash signatures come
    from one :meth:`~repro.sandbox.lsh.MinHasher.signature_matrix` call
    and every candidate pair is verified with packed-bit intersection
    counts — bit-identical to per-profile
    :meth:`~repro.sandbox.lsh.MinHasher.signature` and per-pair
    :func:`~repro.util.stats.jaccard`, the references the tests
    compare against.
    """
    config = config or ClusteringConfig()
    tracer = current_tracer()
    registry = obs_metrics.active()
    with tracer.span("lsh.dedupe") as span:
        groups, uniques = _dedupe(profiles)
        span.set(profiles=len(profiles), unique_profiles=len(uniques))
    with tracer.span("lsh.index") as span:
        hasher = MinHasher(
            config.n_hashes, seed=config.minhash_seed, backend=config.minhash_backend
        )
        index = LSHIndex(
            bands=config.bands,
            rows=config.rows,
            max_bucket_size=config.max_bucket_size,
        )
        hashed_sets: list[set[int]] = []
        feature_sets: list[set] = []
        for features in uniques:
            profile = BehaviorProfile(features)
            hashed_sets.append(profile.hashed_features())
            feature_sets.append(set(features))
        signatures = hasher.signature_matrix(hashed_sets)
        for i in range(len(uniques)):
            index.add(i, tuple(int(v) for v in signatures[i]))
        candidates = index.candidate_pairs()
        span.set(candidate_pairs=len(candidates))
        bucket_hist = registry.histogram(
            "lsh.bucket_size", buckets=obs_metrics.SIZE_BUCKETS
        )
        # The sketch tracks the same series with relative-error bins:
        # at 100x-1000x scale bucket sizes outgrow the fixed SIZE
        # buckets, while the sketch keeps tail quantiles meaningful.
        bucket_sketch = registry.sketch("lsh.bucket_size_sketch")
        for size in index.bucket_sizes():
            bucket_hist.observe(size)
            bucket_sketch.observe(size)
        registry.counter("lsh.buckets_skipped").inc(index.skipped_buckets)
    uf = _UnionFind(list(range(len(uniques))))
    comparisons = len(candidates)
    with tracer.span("lsh.verify") as span:
        if candidates:
            ordered = list(candidates)
            verdicts = _verify_pairs_vectorized(
                feature_sets, ordered, config.threshold
            )
            for (i, j), similar in zip(ordered, verdicts):
                if similar:
                    uf.union(i, j)
        span.set(pairs_verified=comparisons)
    labels = {i: uf.find(i) for i in range(len(uniques))}
    assignment = _expand(labels, uniques, groups)
    result = BehaviorClustering.from_assignment(
        assignment,
        n_exact_comparisons=comparisons,
        n_candidate_pairs=len(candidates),
    )
    registry.gauge("lsh.unique_profiles").set(len(uniques))
    registry.counter("lsh.candidate_pairs").inc(len(candidates))
    registry.counter("lsh.pairs_verified").inc(comparisons)
    registry.gauge("lsh.clusters").set(result.n_clusters)
    return result
