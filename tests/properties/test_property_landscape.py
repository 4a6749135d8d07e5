"""Hypothesis property tests for the landscape generator."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.egpm.events import InteractionType
from repro.malware.behaviorspec import BehaviorTemplate
from repro.malware.families import FamilySpec, VariantSpec
from repro.malware.landscape import LandscapeGenerator
from repro.malware.polymorphism import PolymorphyMode
from repro.malware.population import ContinuousActivity, PopulationSpec
from repro.malware.propagation import (
    ExploitSpec,
    PayloadSpec,
    PropagationSpec,
    fixed,
    rand,
)
from repro.net.address import IPv4Address
from repro.net.sampling import UniformSampler
from repro.peformat.builder import build_pe, minimum_file_size
from repro.peformat.structures import FILE_ALIGNMENT, PESpec
from repro.util.hashing import md5_hex
from repro.util.rng import RandomSource
from repro.util.timegrid import WEEK_SECONDS, TimeGrid

SENSORS = [
    IPv4Address((77 << 24) | (n << 16) | (1 << 8) | h)
    for n in range(2)
    for h in (1, 2)
]


def _binary(attempt) -> bytes:
    """The binary an attempt names."""
    return build_pe(attempt.pe_spec, attempt.content_seed)


@st.composite
def variant_specs(draw):
    mode = draw(st.sampled_from(list(PolymorphyMode)))
    base = PESpec()
    extra = draw(st.integers(min_value=0, max_value=20))
    spec = base.with_size(
        max(base.file_size, minimum_file_size(base)) + extra * FILE_ALIGNMENT
    )
    return VariantSpec(
        family="fam",
        variant=f"v{draw(st.integers(0, 99)):03d}",
        pe_spec=spec,
        polymorphism=mode,
        behavior=BehaviorTemplate(mutexes=("m",)),
        propagation=PropagationSpec(
            ExploitSpec(
                name="e",
                dst_port=draw(st.sampled_from([139, 445, 135])),
                dialogue=((fixed("GO"), rand(4)),),
            ),
            PayloadSpec(
                name="p",
                protocol="ftp",
                interaction=InteractionType.PULL,
                filename="x.exe",
                port=21,
            ),
        ),
        population=PopulationSpec(
            size=draw(st.integers(min_value=1, max_value=20)),
            sampler=UniformSampler(),
        ),
        activity=ContinuousActivity(draw(st.floats(min_value=0.5, max_value=6.0))),
    )


class TestGeneratorInvariants:
    @given(variant_specs(), st.integers(0, 50))
    @settings(max_examples=20, deadline=None)
    def test_stream_invariants(self, variant, seed):
        grid = TimeGrid(0, 3 * WEEK_SECONDS)
        family = FamilySpec(name="fam", variants=(variant,))
        generator = LandscapeGenerator([family], SENSORS, grid, RandomSource(seed))
        attempts = list(generator)
        times = [a.timestamp for a in attempts]
        assert times == sorted(times)
        sensor_set = set(SENSORS)
        population_cap = variant.population.size
        sources = set()
        for attempt in attempts:
            assert grid.contains(attempt.timestamp)
            assert attempt.sensor in sensor_set
            assert attempt.variant_key == variant.key
            assert len(_binary(attempt)) == variant.pe_spec.file_size or (
                variant.polymorphism is PolymorphyMode.REPACK
            )
            sources.add(int(attempt.source))
        assert len(sources) <= population_cap

    @given(variant_specs(), st.integers(0, 50))
    @settings(max_examples=15, deadline=None)
    def test_polymorphism_contract(self, variant, seed):
        grid = TimeGrid(0, 3 * WEEK_SECONDS)
        family = FamilySpec(name="fam", variants=(variant,))
        generator = LandscapeGenerator([family], SENSORS, grid, RandomSource(seed))
        md5_by_source: dict[int, set[str]] = {}
        all_md5s: list[str] = []
        for attempt in generator:
            digest = md5_hex(_binary(attempt))
            md5_by_source.setdefault(int(attempt.source), set()).add(digest)
            all_md5s.append(digest)
        if not all_md5s:
            return
        if variant.polymorphism is PolymorphyMode.NONE:
            assert len(set(all_md5s)) == 1
        elif variant.polymorphism is PolymorphyMode.PER_SOURCE:
            assert all(len(digests) == 1 for digests in md5_by_source.values())
        elif variant.polymorphism is PolymorphyMode.PER_INSTANCE:
            assert len(set(all_md5s)) == len(all_md5s)
        else:  # REPACK: per-instance at minimum
            assert len(set(all_md5s)) == len(all_md5s)

    @given(variant_specs())
    @settings(max_examples=10, deadline=None)
    def test_determinism(self, variant):
        grid = TimeGrid(0, 2 * WEEK_SECONDS)
        family = FamilySpec(name="fam", variants=(variant,))
        a = [
            (x.timestamp, md5_hex(_binary(x)))
            for x in LandscapeGenerator([family], SENSORS, grid, RandomSource(3))
        ]
        b = [
            (x.timestamp, md5_hex(_binary(x)))
            for x in LandscapeGenerator([family], SENSORS, grid, RandomSource(3))
        ]
        assert a == b
