"""Nepenthes-style shellcode analysis and download emulation.

SGNET reuses Nepenthes modules to understand the *intended behaviour* of
an injected shellcode (which protocol it downloads over, which filename
and port are involved, who connects to whom) and to emulate the network
actions needed to actually fetch the malware.  Both stages fail in the
real system, and those failures shape the dataset:

* some shellcodes are unknown to the analyzer (no pi observables and no
  sample at all),
* some downloads fail outright, and
* some downloads are *truncated* — the paper explicitly attributes its
  6353-collected vs 5165-executable gap to failures in Nepenthes
  download modules producing corrupted binaries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.egpm.events import PayloadObservable
from repro.malware.propagation import PayloadSpec
from repro.util.validation import require, require_probability


@dataclass(frozen=True)
class ShellcodeConfig:
    """Failure-rate knobs of the analyzer/download pipeline."""

    unknown_rate: float = 0.02
    download_fail_rate: float = 0.04
    truncation_rate: float = 0.085
    min_truncation_fraction: float = 0.05
    max_truncation_fraction: float = 0.9

    def __post_init__(self) -> None:
        require_probability(self.unknown_rate, "unknown_rate")
        require_probability(self.download_fail_rate, "download_fail_rate")
        require_probability(self.truncation_rate, "truncation_rate")
        require_probability(self.min_truncation_fraction, "min_truncation_fraction")
        require_probability(self.max_truncation_fraction, "max_truncation_fraction")
        require(
            self.min_truncation_fraction <= self.max_truncation_fraction,
            "min_truncation_fraction must be <= max_truncation_fraction",
        )


@dataclass(frozen=True)
class DownloadOutcome:
    """Result of emulating one shellcode's download actions."""

    #: Bytes received, a prefix of the file; ``None`` when nothing arrived.
    length: int | None
    truncated: bool

    @property
    def succeeded(self) -> bool:
        """Whether any bytes were collected at all."""
        return self.length is not None


class ShellcodeAnalyzer:
    """The Nepenthes stand-in: shellcode -> pi observables + download."""

    def __init__(self, config: ShellcodeConfig | None = None) -> None:
        self.config = config or ShellcodeConfig()
        self.n_analyzed = 0
        self.n_unknown = 0
        self.n_downloads = 0
        self.n_failed_downloads = 0
        self.n_truncated = 0

    def analyze(
        self,
        payload: PayloadSpec,
        filename: str | None,
        rng: random.Random,
        shared: dict[tuple, PayloadObservable],
    ) -> PayloadObservable | None:
        """Extract pi observables from one injected shellcode.

        Returns ``None`` when the shellcode is not understood by any
        module (the event then carries no pi/mu information).  The
        involved port is the spec's fixed port when it has one, or the
        OS-assigned ephemeral port Nepenthes reports otherwise — fresh
        per attack, hence never an EPM invariant.

        ``shared`` maps each field tuple seen so far to its observable:
        a repeat returns that object without building a new record.
        """
        self.n_analyzed += 1
        if rng.random() < self.config.unknown_rate:
            self.n_unknown += 1
            return None
        port = payload.port
        if port is None:
            port = rng.randint(1024, 65535)
        fields = (payload.protocol, payload.interaction, filename, port)
        observable = shared.get(fields)
        if observable is None:
            observable = shared[fields] = PayloadObservable(*fields)
        return observable

    def download(self, size: int, rng: random.Random) -> DownloadOutcome:
        """Emulate the download of a ``size``-byte file; may fail or truncate.

        Only the file's size shapes the draws and the outcome, so the
        caller can build the bytes later, for the downloads that
        succeeded, and hash the received prefix.
        """
        self.n_downloads += 1
        roll = rng.random()
        if roll < self.config.download_fail_rate:
            self.n_failed_downloads += 1
            return DownloadOutcome(length=None, truncated=False)
        if roll < self.config.download_fail_rate + self.config.truncation_rate:
            self.n_truncated += 1
            if rng.random() < 0.12:
                # The connection died almost immediately: only a sliver of
                # the file arrived, often not even the full DOS/PE headers
                # (these surface as 'data' / bare 'MS-DOS executable' in
                # the libmagic feature).
                cut = rng.randint(1, 512)
            else:
                fraction = rng.uniform(
                    self.config.min_truncation_fraction,
                    self.config.max_truncation_fraction,
                )
                cut = max(1, int(size * fraction))
            return DownloadOutcome(length=min(cut, size), truncated=True)
        return DownloadOutcome(length=size, truncated=False)

    def stats(self) -> dict[str, int]:
        """Counter snapshot for reporting."""
        return {
            "analyzed": self.n_analyzed,
            "unknown": self.n_unknown,
            "downloads": self.n_downloads,
            "failed_downloads": self.n_failed_downloads,
            "truncated": self.n_truncated,
        }
