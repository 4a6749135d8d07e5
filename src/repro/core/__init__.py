"""EPM clustering — the paper's primary contribution.

EPM clustering is a deliberately simple pattern-discovery technique (a
simplification of Julisch's attribute-oriented induction for IDS alarms)
applied *independently* to the three observable dimensions of a code
injection: epsilon (exploit), pi (payload) and mu (malware).  Its four
phases map onto this package:

1. **feature definition** (:mod:`repro.core.features`) — Table 1's
   per-dimension feature lists and their extractors,
2. **invariant discovery** (:mod:`repro.core.invariants`) — values that
   recur across enough instances, attackers *and* honeypot addresses,
3. **pattern discovery** (:mod:`repro.core.patterns`) — the distinct
   combinations of invariant values (with "do not care" wildcards) found
   in the data, and
4. **pattern-based classification** (:mod:`repro.core.classifier`) —
   each instance is assigned to the *most specific* pattern matching it;
   instances sharing a pattern form an E-, P- or M-cluster.

:class:`repro.core.epm.EPMClustering` is the high-level facade running
all four phases over an :class:`~repro.egpm.dataset.SGNetDataset`.
"""

from repro.core.features import (
    Dimension,
    FeatureDefinition,
    FeatureSet,
    default_feature_sets,
    epsilon_features,
    mu_features,
    pi_features,
)
from repro.core.invariants import InvariantPolicy, InvariantStats, discover_invariants
from repro.core.patterns import WILDCARD, Pattern, PatternSet, mask_instance
from repro.core.classifier import ClusterInfo, DimensionClustering
from repro.core.epm import EPMClustering, EPMResult
from repro.core.hierarchy import (
    ANY,
    AOIMiner,
    AOIResult,
    Concept,
    Taxonomy,
    band_taxonomy,
    flat_taxonomy,
)

__all__ = [
    "ANY",
    "AOIMiner",
    "AOIResult",
    "Concept",
    "Taxonomy",
    "band_taxonomy",
    "flat_taxonomy",
    "ClusterInfo",
    "Dimension",
    "DimensionClustering",
    "EPMClustering",
    "EPMResult",
    "FeatureDefinition",
    "FeatureSet",
    "InvariantPolicy",
    "InvariantStats",
    "Pattern",
    "PatternSet",
    "WILDCARD",
    "default_feature_sets",
    "discover_invariants",
    "epsilon_features",
    "mask_instance",
    "mu_features",
    "pi_features",
]
