"""Anubis-style dynamic analysis and behaviour-based clustering.

The paper consumes two outputs of the Anubis platform:

* per-sample **behavioural profiles** — abstract representations of a
  program's behaviour in terms of OS objects and operations (Bayer et
  al., NDSS 2009), reproduced by :mod:`repro.sandbox.behavior` and
  produced by the simulated execution engine in
  :mod:`repro.sandbox.execution` under an explicit, time-varying
  :class:`~repro.sandbox.environment.Environment` (DNS names that stop
  resolving and components that stop being served are what split one
  codebase across B-clusters, the paper's ``iliketay.cn`` anomaly), and
* **B-clusters** — the scalable behaviour clustering that avoids the
  O(n^2) distance matrix via locality-sensitive hashing
  (:mod:`repro.sandbox.lsh`) followed by single-linkage grouping at a
  Jaccard threshold (:mod:`repro.sandbox.clustering`: a threshold-free
  similarity graph, then a cut of it); an exact quadratic baseline is
  provided for validation.
"""

from repro.sandbox.behavior import BehaviorProfile, Feature
from repro.sandbox.environment import Environment, Window
from repro.sandbox.execution import Sandbox, SandboxConfig
from repro.sandbox.lsh import MinHasher, LSHIndex
from repro.sandbox.clustering import (
    BehaviorClustering,
    ClusteringConfig,
    SimilarityGraph,
    cluster_exact,
    cluster_lsh,
    cut,
    similarity_graph,
)
from repro.sandbox.anubis import AnubisReport, AnubisService
from repro.sandbox.reporting import render_timeline

__all__ = [
    "render_timeline",
    "AnubisReport",
    "AnubisService",
    "BehaviorClustering",
    "BehaviorProfile",
    "ClusteringConfig",
    "Environment",
    "Feature",
    "LSHIndex",
    "MinHasher",
    "Sandbox",
    "SandboxConfig",
    "SimilarityGraph",
    "Window",
    "cluster_exact",
    "cluster_lsh",
    "cut",
    "similarity_graph",
]
