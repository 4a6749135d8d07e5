"""Tests for the Nepenthes-style shellcode analyzer."""

import random

import pytest

from repro.egpm.events import InteractionType
from repro.honeypot.shellcode import DownloadOutcome, ShellcodeAnalyzer, ShellcodeConfig
from repro.malware.propagation import PayloadSpec
from repro.util.validation import ValidationError


def _payload(port=21, filename="x.exe"):
    return PayloadSpec(
        name="p",
        protocol="ftp",
        interaction=InteractionType.PULL,
        filename=filename,
        port=port,
    )


class TestConfig:
    def test_rates_validated(self):
        with pytest.raises(ValidationError):
            ShellcodeConfig(unknown_rate=1.5)
        with pytest.raises(ValidationError):
            ShellcodeConfig(truncation_rate=-0.1)

    def test_fraction_ordering_validated(self):
        with pytest.raises(ValidationError):
            ShellcodeConfig(min_truncation_fraction=0.9, max_truncation_fraction=0.1)


class TestAnalyze:
    def test_observable_fields(self):
        analyzer = ShellcodeAnalyzer(ShellcodeConfig(unknown_rate=0.0))
        obs = analyzer.analyze(_payload(), "x.exe", random.Random(1), {})
        assert obs.protocol == "ftp"
        assert obs.interaction is InteractionType.PULL
        assert obs.filename == "x.exe"
        assert obs.port == 21

    def test_unknown_shellcode_returns_none(self):
        analyzer = ShellcodeAnalyzer(ShellcodeConfig(unknown_rate=1.0))
        assert analyzer.analyze(_payload(), "x.exe", random.Random(1), {}) is None
        assert analyzer.n_unknown == 1

    def test_ephemeral_port_assigned(self):
        analyzer = ShellcodeAnalyzer(ShellcodeConfig(unknown_rate=0.0))
        spec = PayloadSpec(
            name="p", protocol="blink", interaction=InteractionType.PULL
        )
        rng = random.Random(1)
        ports = {analyzer.analyze(spec, None, rng, {}).port for _ in range(20)}
        assert all(1024 <= p <= 65535 for p in ports)
        assert len(ports) > 10  # fresh per attack: never an invariant

    def test_unknown_rate_statistics(self):
        analyzer = ShellcodeAnalyzer(ShellcodeConfig(unknown_rate=0.3))
        rng = random.Random(1)
        results = [analyzer.analyze(_payload(), "x", rng, {}) for _ in range(500)]
        misses = sum(1 for r in results if r is None)
        assert 100 < misses < 200

    def test_equal_observables_are_one_object(self):
        analyzer = ShellcodeAnalyzer(ShellcodeConfig(unknown_rate=0.0))
        shared = {}
        first = analyzer.analyze(_payload(), "x.exe", random.Random(1), shared)
        again = analyzer.analyze(_payload(), "x.exe", random.Random(2), shared)
        other = analyzer.analyze(_payload(), "y.exe", random.Random(3), shared)
        assert again is first
        assert other is not first and other.filename == "y.exe"
        assert analyzer.analyze(_payload(), "x.exe", random.Random(1), {}) == first


class TestDownload:
    def test_success_returns_full_bytes(self):
        analyzer = ShellcodeAnalyzer(
            ShellcodeConfig(download_fail_rate=0.0, truncation_rate=0.0)
        )
        outcome = analyzer.download(1024, random.Random(1))
        assert outcome == DownloadOutcome(length=1024, truncated=False)
        assert outcome.succeeded

    def test_total_failure(self):
        analyzer = ShellcodeAnalyzer(ShellcodeConfig(download_fail_rate=1.0))
        outcome = analyzer.download(3, random.Random(1))
        assert outcome.length is None
        assert not outcome.succeeded

    def test_truncation_shortens(self):
        analyzer = ShellcodeAnalyzer(
            ShellcodeConfig(download_fail_rate=0.0, truncation_rate=1.0)
        )
        rng = random.Random(1)
        for _ in range(50):
            outcome = analyzer.download(1000, rng)
            assert outcome.truncated
            assert 1 <= outcome.length < 1000

    def test_truncation_prefix_property(self):
        analyzer = ShellcodeAnalyzer(
            ShellcodeConfig(download_fail_rate=0.0, truncation_rate=1.0)
        )
        data = bytes(range(200)) * 10
        outcome = analyzer.download(len(data), random.Random(2))
        # The receiver keeps the first ``length`` bytes of the file.
        received = data[: outcome.length]
        assert len(received) == outcome.length
        assert data.startswith(received)

    def test_stats_counters(self):
        analyzer = ShellcodeAnalyzer(
            ShellcodeConfig(download_fail_rate=0.5, truncation_rate=0.5)
        )
        rng = random.Random(3)
        for _ in range(100):
            analyzer.download(100, rng)
        stats = analyzer.stats()
        assert stats["downloads"] == 100
        assert stats["failed_downloads"] + stats["truncated"] == 100
