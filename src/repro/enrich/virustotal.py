"""Simulated VirusTotal: multi-engine AV scanning with label noise.

Real AV labels are noisy in three well-documented ways the paper (and
its reference [7]) leans on: engines use *different family names* for
the same code (Allaple vs Rahack), they group variants under *suffix
letters* inconsistently, and they sometimes return only a *generic*
label or miss a sample entirely.  The simulation reproduces all three,
deterministically per (engine, sample) pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.egpm.events import GroundTruth
from repro.util.hashing import stable_hash64
from repro.util.rng import spawn_rng
from repro.util.validation import require, require_probability

_GENERIC_LABELS = ("Trojan.Generic", "W32.Malware.Gen", "Suspicious.Heuristic")


@lru_cache(maxsize=4096)
def _suffix_letter(index: int) -> str:
    """Variant index -> AV suffix letter sequence (A..Z, AA..)."""
    require(index >= 0, "variant index must be >= 0")
    letters = ""
    index += 1
    while index > 0:
        index, rem = divmod(index - 1, 26)
        letters = chr(ord("A") + rem) + letters
    return letters


@dataclass(frozen=True)
class AVEngine:
    """One scanning engine's naming behaviour.

    ``family_aliases`` maps ground-truth family names to this vendor's
    name for the family; families without an alias get a mechanical
    ``W32.<Family>`` fallback.  ``variant_granularity`` controls how many
    real variants share one suffix letter (vendors' signatures are
    coarser than the true patch lineage).
    """

    name: str
    detection_rate: float = 0.95
    generic_rate: float = 0.05
    variant_granularity: int = 4
    family_aliases: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        require_probability(self.detection_rate, "detection_rate")
        require_probability(self.generic_rate, "generic_rate")
        require(self.variant_granularity >= 1, "variant_granularity must be >= 1")

    def label(self, md5: str, truth: GroundTruth) -> str | None:
        """Deterministic label (or miss = ``None``) for one sample."""
        rng = spawn_rng(stable_hash64(md5, salt=self.name), "av-label")
        if rng.random() >= self.detection_rate:
            return None
        if rng.random() < self.generic_rate:
            return rng.choice(_GENERIC_LABELS)
        alias = self.family_aliases.get(
            truth.family, "W32." + truth.family.replace("_", "").capitalize()
        )
        variant_index = _variant_index(truth.variant)
        suffix = _suffix_letter(variant_index // self.variant_granularity)
        return f"{alias}.{suffix}"


@lru_cache(maxsize=4096)
def _variant_index(variant: str) -> int:
    digits = "".join(ch for ch in variant if ch.isdigit())
    return int(digits) if digits else 0


def default_engines() -> list[AVEngine]:
    """A realistic engine panel with Allaple/Rahack-style aliasing."""
    return [
        AVEngine(
            name="PopularAV",
            detection_rate=0.97,
            generic_rate=0.03,
            variant_granularity=3,
            family_aliases={"allaple": "W32.Rahack"},
        ),
        AVEngine(
            name="EuroAV",
            detection_rate=0.94,
            generic_rate=0.06,
            variant_granularity=5,
            family_aliases={"allaple": "Net-Worm.Allaple"},
        ),
        AVEngine(
            name="HeurAV",
            detection_rate=0.90,
            generic_rate=0.18,
            variant_granularity=8,
            family_aliases={"allaple": "Worm/Allaple"},
        ),
        AVEngine(
            name="SignatureAV",
            detection_rate=0.88,
            generic_rate=0.02,
            variant_granularity=2,
            family_aliases={"allaple": "W32/Rahack.worm"},
        ),
    ]


class VirusTotalService:
    """Scans samples against a panel of engines and caches verdicts."""

    def __init__(self, engines: list[AVEngine] | None = None) -> None:
        self.engines = engines if engines is not None else default_engines()
        require(len(self.engines) > 0, "need at least one engine")
        self._cache: dict[str, dict[str, str | None]] = {}

    def scan(
        self,
        md5: str,
        truth: GroundTruth,
        shared: dict[str, str],
    ) -> dict[str, str | None]:
        """Engine name -> label (``None`` = not detected).

        ``shared`` maps each label seen so far to its one string: a new
        verdict's equal labels come back as that object.
        """
        cached = self._cache.get(md5)
        if cached is not None:
            return cached
        verdicts = {engine.name: engine.label(md5, truth) for engine in self.engines}
        for name, label in verdicts.items():
            if label is not None:
                verdicts[name] = shared.setdefault(label, label)
        self._cache[md5] = verdicts
        return verdicts
