"""Tests for the paper-scale landscape catalog."""

import pytest

from repro.experiments.catalog import (
    allaple_behavior,
    allaple_payload,
    asn1_exploit,
    build_catalog,
    iliketay_behavior,
    iliketay_pe_spec,
)
from repro.honeypot.deployment import SGNetDeployment
from repro.malware.polymorphism import PolymorphyMode
from repro.util.rng import RandomSource
from repro.util.timegrid import WEEK_SECONDS, TimeGrid
from repro.util.validation import ValidationError

GRID = TimeGrid(0, 74 * WEEK_SECONDS)


@pytest.fixture(scope="module")
def catalog():
    deployment = SGNetDeployment(RandomSource(2010).child("deployment"))
    return build_catalog(
        RandomSource(2010).child("catalog"), GRID, deployment.sensor_networks
    )


class TestBuildingBlocks:
    def test_asn1_exploit_targets_445(self):
        assert asn1_exploit().dst_port == 445

    def test_allaple_payload_is_p_pattern_45(self):
        payload = allaple_payload()
        assert payload.port == 9988
        assert payload.interaction.value == "push"
        assert payload.filename is None

    def test_iliketay_pe_spec_matches_quoted_pattern(self):
        spec = iliketay_pe_spec()
        assert spec.file_size == 59_904
        assert spec.machine_type == 332
        assert spec.n_sections == 3
        assert spec.n_dlls == 1
        assert spec.os_version == 64
        assert spec.linker_version == 92
        assert spec.imports["KERNEL32.dll"] == ("GetProcAddress", "LoadLibraryA")
        assert [s.name for s in spec.sections] == [".text", "rdata", ".data"]

    def test_allaple_generations_behaviourally_distant(self):
        from repro.sandbox.environment import Environment
        from repro.sandbox.execution import Sandbox

        sandbox = Sandbox(Environment())
        g0 = sandbox.execute(
            allaple_behavior(0).with_noise_rate(0.0), time=0, run_seed=1
        )
        g1 = sandbox.execute(
            allaple_behavior(1).with_noise_rate(0.0), time=0, run_seed=1
        )
        assert g0.similarity(g1) < 0.7  # two B-clusters, as in the paper

    def test_allaple_generation_validated(self):
        with pytest.raises(ValidationError):
            allaple_behavior(2)

    def test_iliketay_behavior_environment_dependent(self):
        behavior = iliketay_behavior()
        assert len(behavior.components) == 2
        assert behavior.components[0].component.cnc is not None


class TestCatalogShape:
    def test_variant_count_near_paper_m_count(self, catalog):
        assert 220 <= catalog.n_variants <= 280

    def test_family_mix(self, catalog):
        names = [f.name for f in catalog.families]
        assert names.count("allaple") == 2  # two behavioural generations
        assert "iliketay" in names
        assert sum(1 for n in names if n.startswith("ircbot")) == 10
        assert sum(1 for n in names if n.startswith("misc")) >= 10

    def test_allaple_sizes_unique_across_generations(self, catalog):
        sizes = [
            v.pe_spec.file_size
            for f in catalog.families
            if f.name == "allaple"
            for v in f.variants
        ]
        assert len(set(sizes)) == len(sizes)

    def test_polymorphism_mix(self, catalog):
        modes = {}
        for family in catalog.families:
            for variant in family.variants:
                modes.setdefault(variant.polymorphism, 0)
                modes[variant.polymorphism] += 1
        assert modes[PolymorphyMode.PER_INSTANCE] > 80
        assert modes[PolymorphyMode.NONE] > 100
        assert modes[PolymorphyMode.PER_SOURCE] == 1

    def test_environment_configured_for_iliketay(self, catalog):
        env = catalog.environment
        assert env.resolves("iliketay.cn", GRID.start)
        assert not env.resolves("iliketay.cn", GRID.end - 1)
        assert env.component_available("iliketay.cn", "/load/two.exe", GRID.start)
        assert not env.component_available(
            "iliketay.cn", "/load/two.exe", GRID.end - 1
        )

    def test_scale_shrinks_catalog(self):
        deployment = SGNetDeployment(RandomSource(1).child("d"))
        small = build_catalog(
            RandomSource(1).child("c"), GRID, deployment.sensor_networks, scale=0.1
        )
        full = build_catalog(
            RandomSource(1).child("c"), GRID, deployment.sensor_networks, scale=1.0
        )
        assert small.n_variants < full.n_variants / 3

    def test_deterministic(self):
        deployment = SGNetDeployment(RandomSource(1).child("d"))
        a = build_catalog(RandomSource(5).child("c"), GRID, deployment.sensor_networks)
        b = build_catalog(RandomSource(5).child("c"), GRID, deployment.sensor_networks)
        assert [v.key for f in a.families for v in f.variants] == [
            v.key for f in b.families for v in f.variants
        ]
        assert [v.pe_spec.file_size for f in a.families for v in f.variants] == [
            v.pe_spec.file_size for f in b.families for v in f.variants
        ]

    def test_bot_cncs_within_declared_infrastructure(self, catalog):
        subnets = {"67.43.232", "67.43.226", "72.10.172", "83.68.16"}
        for family in catalog.families:
            if not family.name.startswith("ircbot"):
                continue
            for variant in family.variants:
                prefix = variant.behavior.cnc.server.rsplit(".", 1)[0]
                assert prefix in subnets

    def test_notes_present(self, catalog):
        assert set(catalog.notes) >= {"allaple", "iliketay", "botnets", "misc"}
