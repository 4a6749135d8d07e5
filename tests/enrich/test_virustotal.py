"""Tests for the simulated multi-engine AV service."""

import pytest

from repro.egpm.events import GroundTruth
from repro.enrich.virustotal import (
    AVEngine,
    VirusTotalService,
    default_engines,
    _suffix_letter,
)
from repro.util.validation import ValidationError

TRUTH = GroundTruth(family="allaple", variant="v007", exploit_name="e", payload_name="p")


class TestSuffixLetter:
    def test_sequence(self):
        assert [_suffix_letter(i) for i in range(4)] == ["A", "B", "C", "D"]

    def test_rolls_over_to_double_letters(self):
        assert _suffix_letter(25) == "Z"
        assert _suffix_letter(26) == "AA"

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            _suffix_letter(-1)


class TestAVEngine:
    def _engine(self, **kwargs):
        defaults = dict(
            name="PopularAV",
            detection_rate=1.0,
            generic_rate=0.0,
            variant_granularity=3,
            family_aliases={"allaple": "W32.Rahack"},
        )
        defaults.update(kwargs)
        return AVEngine(**defaults)

    def test_alias_applied(self):
        label = self._engine().label("a" * 32, TRUTH)
        assert label.startswith("W32.Rahack.")

    def test_fallback_name_for_unknown_family(self):
        truth = GroundTruth("mystery_fam", "v001", "e", "p")
        label = self._engine().label("a" * 32, truth)
        assert label.startswith("W32.Mysteryfam.")

    def test_deterministic_per_sample(self):
        engine = self._engine(detection_rate=0.5)
        assert engine.label("a" * 32, TRUTH) == engine.label("a" * 32, TRUTH)

    def test_granularity_groups_variants(self):
        engine = self._engine(variant_granularity=4)
        labels = {
            engine.label("a" * 32, GroundTruth("allaple", f"v{i:03d}", "e", "p"))
            for i in range(4)
        }
        assert len(labels) == 1  # v000..v003 share a suffix letter

    def test_granularity_splits_distant_variants(self):
        engine = self._engine(variant_granularity=4)
        a = engine.label("a" * 32, GroundTruth("allaple", "v000", "e", "p"))
        b = engine.label("a" * 32, GroundTruth("allaple", "v010", "e", "p"))
        assert a != b

    def test_misses_at_zero_detection(self):
        engine = self._engine(detection_rate=0.0)
        assert engine.label("a" * 32, TRUTH) is None

    def test_generic_labels(self):
        engine = self._engine(generic_rate=1.0)
        label = engine.label("a" * 32, TRUTH)
        assert "Rahack" not in label

    def test_validation(self):
        with pytest.raises(ValidationError):
            self._engine(detection_rate=2.0)
        with pytest.raises(ValidationError):
            self._engine(variant_granularity=0)


class TestVirusTotalService:
    def test_scan_all_engines(self):
        service = VirusTotalService()
        verdicts = service.scan("a" * 32, TRUTH, {})
        assert set(verdicts) == {e.name for e in default_engines()}

    def test_scan_cached(self):
        service = VirusTotalService()
        first = service.scan("a" * 32, TRUTH, {})
        second = service.scan("a" * 32, TRUTH, {})
        assert first is second

    def test_equal_labels_are_one_string(self):
        service = VirusTotalService()
        shared = {}
        labels = [
            label
            for i in range(40)
            for label in service.scan(f"{i:032x}", TRUTH, shared).values()
            if label is not None
        ]
        assert len(labels) > len(set(labels))
        assert len({id(label) for label in labels}) == len(set(labels))
        assert set(shared) == set(labels)

    def test_vendor_aliasing_in_defaults(self):
        service = VirusTotalService()
        # Scan enough polymorphic instances: each engine names Allaple by
        # its own alias, the aliasing the paper's AV-label discussion is about.
        labels = {}
        for i in range(40):
            verdicts = service.scan(f"{i:032x}", TRUTH, {})
            for engine, label in verdicts.items():
                if label and "Generic" not in label and "Gen" not in label:
                    labels.setdefault(engine, set()).add(label.rsplit(".", 1)[0])
        families = set().union(*labels.values())
        assert len(families) >= 3  # Rahack vs Allaple vs Worm/Allaple ...
