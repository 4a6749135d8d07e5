"""Shared utilities: deterministic RNG streams, statistics, time grids,
hashing helpers, validation and plain-text table rendering.

Everything stochastic in the reproduction draws from named substreams of a
single master seed (see :mod:`repro.util.rng`), so every experiment is a
pure function of its seed.
"""

from repro.util.clock import fixed_timestamp, timestamp
from repro.util.rng import RandomSource, derive_seed, spawn_rng
from repro.util.stats import (
    burstiness,
    entropy,
    frequency,
    jaccard,
    normalized_entropy,
    quantile,
)
from repro.util.hashing import md5_hex, stable_hash64
from repro.util.timegrid import TimeGrid, WEEK_SECONDS
from repro.util.tables import TextTable, format_histogram
from repro.util.validation import (
    ValidationError,
    require,
    require_positive,
    require_probability,
    require_type,
)

__all__ = [
    "burstiness",
    "fixed_timestamp",
    "timestamp",
    "entropy",
    "frequency",
    "jaccard",
    "normalized_entropy",
    "quantile",
    "RandomSource",
    "derive_seed",
    "spawn_rng",
    "md5_hex",
    "stable_hash64",
    "TimeGrid",
    "WEEK_SECONDS",
    "TextTable",
    "format_histogram",
    "ValidationError",
    "require",
    "require_positive",
    "require_probability",
    "require_type",
]
