"""Tests for the deployment orchestrator."""

import pytest

from repro.egpm.events import InteractionType
from repro.honeypot.deployment import DeploymentConfig, SGNetDeployment
from repro.honeypot.shellcode import ShellcodeConfig
from repro.malware.behaviorspec import BehaviorTemplate
from repro.malware.families import single_variant_family
from repro.malware.landscape import LandscapeGenerator
from repro.malware.polymorphism import PolymorphyMode
from repro.malware.population import ContinuousActivity, PopulationSpec
from repro.malware.propagation import ExploitSpec, PayloadSpec, PropagationSpec, fixed, rand
from repro.net.sampling import UniformSampler
from repro.peformat.structures import PESpec
from repro.util.rng import RandomSource
from repro.util.timegrid import WEEK_SECONDS, TimeGrid

GRID = TimeGrid(0, 6 * WEEK_SECONDS)


def _deployment(seed=1, **overrides):
    defaults = dict(n_networks=4, sensors_per_network=3)
    defaults.update(overrides)
    return SGNetDeployment(RandomSource(seed).child("dep"), DeploymentConfig(**defaults))


def _family(name="fam", polymorphism=PolymorphyMode.PER_INSTANCE):
    return single_variant_family(
        name=name,
        pe_spec=PESpec(),
        behavior=BehaviorTemplate(mutexes=(f"{name}-m",)),
        propagation=PropagationSpec(
            ExploitSpec(name="e", dst_port=445, dialogue=((fixed("GO"), rand(4)),)),
            PayloadSpec(
                name="p",
                protocol="ftp",
                interaction=InteractionType.PULL,
                filename="a.exe",
                port=21,
            ),
        ),
        population=PopulationSpec(size=15, sampler=UniformSampler()),
        activity=ContinuousActivity(8.0),
        polymorphism=polymorphism,
    )


def _observe(deployment, families, seed=1):
    generator = LandscapeGenerator(
        families, deployment.sensor_addresses, GRID, RandomSource(seed).child("land")
    )
    return deployment.observe(generator)


class TestDeploymentShape:
    def test_sensor_counts(self):
        deployment = _deployment(n_networks=5, sensors_per_network=4)
        assert len(deployment.sensor_addresses) == 20
        assert len(deployment.sensor_networks) == 5

    def test_default_matches_paper_footprint(self):
        config = DeploymentConfig()
        assert config.n_networks * config.sensors_per_network == 150

    def test_addresses_grouped_by_network(self):
        deployment = _deployment(n_networks=3, sensors_per_network=5)
        networks = {a.slash24 for a in deployment.sensor_addresses}
        assert len(networks) == 3

    def test_deterministic_addresses(self):
        a = _deployment(seed=9).sensor_addresses
        b = _deployment(seed=9).sensor_addresses
        assert a == b


class TestObservation:
    def test_dataset_populated(self):
        deployment = _deployment()
        dataset = _observe(deployment, [_family()])
        assert len(dataset) > 50
        assert dataset.n_samples > 0

    def test_event_ids_sequential(self):
        dataset = _observe(_deployment(), [_family()])
        assert [e.event_id for e in dataset] == list(range(len(dataset)))

    def test_two_pass_classification_backfills_early_events(self):
        # Events observed before the FSM was refined must still carry the
        # learned path id in the final dataset.
        dataset = _observe(_deployment(), [_family()])
        path_ids = {e.exploit.fsm_path_id for e in dataset}
        assert 0 not in path_ids  # nothing left unclassified
        assert len(path_ids) == 1

    def test_ground_truth_rides_along(self):
        dataset = _observe(_deployment(), [_family()])
        assert all(e.ground_truth.family == "fam" for e in dataset)

    def test_behavior_handles_attached(self):
        dataset = _observe(_deployment(), [_family()])
        assert all(
            r.behavior_handle is not None for r in dataset.samples.values()
        )

    def test_per_instance_polymorphism_yields_many_samples(self):
        dataset = _observe(_deployment(), [_family()])
        with_sample = [e for e in dataset if e.malware is not None]
        assert dataset.n_samples == len(with_sample)

    def test_failure_modes_present(self):
        config = DeploymentConfig(
            n_networks=4,
            sensors_per_network=3,
            shellcode=ShellcodeConfig(
                unknown_rate=0.1, download_fail_rate=0.1, truncation_rate=0.2
            ),
        )
        deployment = SGNetDeployment(RandomSource(1).child("dep"), config)
        dataset = _observe(deployment, [_family()])
        no_payload = sum(1 for e in dataset if e.payload is None)
        no_malware = sum(1 for e in dataset if e.payload is not None and e.malware is None)
        corrupted = sum(1 for e in dataset if e.malware is not None and e.malware.corrupted)
        assert no_payload > 0
        assert no_malware > 0
        assert corrupted > 0

    def test_corrupted_samples_not_valid(self):
        config = DeploymentConfig(
            n_networks=4,
            sensors_per_network=3,
            shellcode=ShellcodeConfig(truncation_rate=0.5),
        )
        deployment = SGNetDeployment(RandomSource(1).child("dep"), config)
        dataset = _observe(deployment, [_family()])
        assert len(dataset.valid_samples()) < dataset.n_samples

    def test_attack_on_unmonitored_address_rejected(self):
        from repro.util.validation import ValidationError

        deployment = _deployment()
        other = _deployment(seed=99)
        generator = LandscapeGenerator(
            [_family()], other.sensor_addresses, GRID, RandomSource(1).child("land")
        )
        with pytest.raises(ValidationError, match="unmonitored"):
            deployment.observe(generator)


class TestProxyEconomics:
    def test_proxy_ratio_declines(self):
        deployment = _deployment()
        _observe(deployment, [_family()])
        ratios = deployment.proxy_ratio_by_week()
        assert ratios  # some weeks observed
        weeks = sorted(ratios)
        early = ratios[weeks[0]]
        late = ratios[weeks[-1]]
        assert late < early  # learning reduces honeyfarm load

    def test_factory_used_then_spared(self):
        deployment = _deployment()
        dataset = _observe(deployment, [_family()])
        proxied = sum(sensor.n_proxied for sensor in deployment.sensors.values())
        assert 0 < proxied < len(dataset)
