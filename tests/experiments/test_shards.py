"""The shard pipeline's determinism contract and plan geometry.

``observe_sharded`` must produce a dataset bit-identical to the plain
``SGNetDeployment.observe`` over the same generator, for any shard
count and any executor backend — these tests enforce that contract
(see :mod:`repro.experiments.shards`).
"""

import pytest

from repro.egpm.events import InteractionType
from repro.experiments.cache import stage_fingerprints
from repro.experiments.scenario import ScenarioConfig
from repro.experiments.shards import (
    observe_sharded,
    plan_shards,
    sensor_group_batches,
)
from repro.honeypot.deployment import DeploymentConfig, SGNetDeployment
from repro.malware.behaviorspec import BehaviorTemplate
from repro.malware.families import single_variant_family
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
from repro.net.sampling import UniformSampler
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import MetricsRegistry
from repro.peformat.structures import PESpec
from repro.util.parallel import SerialExecutor, get_executor
from repro.util.rng import RandomSource
from repro.util.timegrid import WEEK_SECONDS, TimeGrid
from repro.util.validation import ValidationError

GRID = TimeGrid(0, 6 * WEEK_SECONDS)


def _deployment(seed=1):
    return SGNetDeployment(
        RandomSource(seed).child("dep"),
        DeploymentConfig(n_networks=4, sensors_per_network=3),
    )


def _family(name="fam"):
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
        polymorphism=PolymorphyMode.PER_INSTANCE,
    )


def _generator(deployment, seed=1, families=None):
    return LandscapeGenerator(
        families or [_family()],
        deployment.sensor_addresses,
        GRID,
        RandomSource(seed).child("land"),
    )


def _schedule():
    deployment = _deployment()
    return _generator(deployment).schedule()


class TestPlanShards:
    def test_one_shard_is_whole_schedule(self):
        schedule = _schedule()
        plan = plan_shards(schedule, 1)
        assert plan.shards == (tuple(schedule),)
        assert plan.n_slots == len(schedule)

    def test_shards_partition_schedule_in_order(self):
        schedule = _schedule()
        for n_shards in (2, 3, 7):
            plan = plan_shards(schedule, n_shards)
            assert len(plan.shards) == n_shards
            assert len(plan.boundaries) == n_shards + 1
            flattened = [slot for shard in plan.shards for slot in shard]
            assert flattened == list(schedule)

    def test_shards_are_time_windows(self):
        plan = plan_shards(_schedule(), 5)
        for shard, low, high in zip(plan.shards, plan.boundaries, plan.boundaries[1:]):
            assert all(low <= slot[0] < high for slot in shard)

    def test_empty_schedule(self):
        plan = plan_shards([], 4)
        assert plan.shards == ()
        assert plan.n_slots == 0

    def test_more_shards_than_timestamps_keeps_empty_windows(self):
        schedule = _schedule()
        plan = plan_shards(schedule, len(schedule) * 2)
        assert plan.n_slots == len(schedule)

    def test_zero_shards_rejected(self):
        with pytest.raises(ValidationError):
            plan_shards(_schedule(), 0)


class TestSensorGroupBatches:
    def test_batches_partition_indices(self):
        schedule = _schedule()
        batches = sensor_group_batches(schedule)
        assert sorted(i for batch in batches for i in batch) == list(
            range(len(schedule))
        )

    def test_batches_group_by_network_constraint(self):
        schedule = _schedule()
        for batch in sensor_group_batches(schedule):
            keys = {schedule[i][3] for i in batch}
            assert len(keys) == 1


class TestObserveSharded:
    def _baseline(self, seed=1):
        deployment = _deployment(seed)
        return deployment.observe(_generator(deployment, seed))

    def _sharded(self, n_shards, seed=1, backend="serial", jobs=0):
        deployment = _deployment(seed)
        generator = _generator(deployment, seed)
        return observe_sharded(
            deployment,
            generator,
            n_shards=n_shards,
            executor=get_executor(backend, jobs),
        )

    def test_bit_identical_for_any_shard_count(self):
        baseline = self._baseline()
        for n_shards in (1, 3, 8):
            dataset = self._sharded(n_shards)
            assert dataset.events == baseline.events
            assert set(dataset.samples) == set(baseline.samples)

    def test_bit_identical_across_backends(self):
        baseline = self._baseline()
        dataset = self._sharded(4, backend="thread", jobs=2)
        assert dataset.events == baseline.events

    def test_merged_columnar_view_is_adopted(self):
        dataset = self._sharded(3)
        view = dataset.to_columnar()
        assert dataset.to_columnar() is view  # pre-merged, not rebuilt
        assert view.n_events == len(dataset)
        baseline_view = self._baseline().to_columnar()
        assert view.summary() == baseline_view.summary()

    def test_shard_metrics_emitted(self):
        with obs_metrics.use(MetricsRegistry()) as registry:
            self._sharded(5)
        snapshot = registry.snapshot()
        assert snapshot.counter("shards.observed") == 5
        assert snapshot.histograms["shards.events"]["count"] == 5


class TestExecutionOnlyFields:
    def test_shards_do_not_change_fingerprints(self):
        base = stage_fingerprints(7, ScenarioConfig())
        assert base == stage_fingerprints(7, ScenarioConfig(shards=8))


class TestShardedBuildUnusedExecutorIsFine:
    def test_serial_executor_default(self):
        # SerialExecutor has no pool; the cheapest path for tests.
        assert isinstance(get_executor("serial"), SerialExecutor)
