"""The deployment orchestrator: attack stream -> SGNET dataset.

:class:`SGNetDeployment` builds the monitored address set (by default 30
network locations with 5 addresses each — the deployment's footprint at
the time of the paper), runs the attack stream through the sensors /
gateway / shellcode pipeline, and emits the enriched
:class:`~repro.egpm.dataset.SGNetDataset`.

Observation is two-pass, mirroring how the paper analyses the dataset
*a posteriori* with the accumulated FSM knowledge: the first pass
processes events online (learning as it goes), the second re-classifies
every stored conversation against the final FSM so early events that
arrived before their activity was learned still receive their path id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.egpm.dataset import SGNetDataset
from repro.egpm.events import (
    AttackEvent,
    ExploitObservable,
    GroundTruth,
    MalwareObservable,
    PayloadObservable,
)
from repro.honeypot.fsm import FSMLearner, UNKNOWN_PATH_ID
from repro.honeypot.gateway import Gateway
from repro.honeypot.sensor import HoneypotSensor
from repro.honeypot.shellcode import ShellcodeAnalyzer, ShellcodeConfig
from repro.malware.background import BackgroundProbe
from repro.malware.landscape import AttackAttempt
from repro.net.address import IPv4Address
from repro.net.sampling import UniformSampler
from repro.obs import metrics as obs_metrics
from repro.peformat.magic import magic_type
from repro.peformat.parser import parse_pe
from repro.peformat.structures import PEFormatError
from repro.util.hashing import md5_hex
from repro.util.rng import RandomSource
from repro.util.timegrid import WEEK_SECONDS
from repro.util.validation import require


@dataclass(frozen=True, slots=True)
class StagedObservation:
    """One attack after pass A, with the binary already dropped.

    Everything pass B (:meth:`SGNetDeployment.add_final_event`) needs to
    emit the final :class:`AttackEvent` — the downloaded bytes themselves
    are reduced to ``malware`` during pass A, so a staged observation is
    a few hundred bytes regardless of sample size.  This is what lets
    the shard pipeline (:mod:`repro.experiments.shards`) discard each
    shard's binaries before building the next one.
    """

    timestamp: int
    source: IPv4Address
    sensor: IPv4Address
    conversation: tuple[tuple[str, ...], ...]
    dst_port: int
    truth: GroundTruth | None
    behavior: object
    payload: PayloadObservable | None
    malware: MalwareObservable | None


@dataclass(frozen=True)
class DeploymentConfig:
    """Deployment shape and pipeline failure rates."""

    n_networks: int = 30
    sensors_per_network: int = 5
    refine_threshold: int = 30
    fsm_min_support: int = 4
    shellcode: ShellcodeConfig = field(default_factory=ShellcodeConfig)

    def __post_init__(self) -> None:
        require(self.n_networks >= 1, "n_networks must be >= 1")
        require(self.sensors_per_network >= 1, "sensors_per_network must be >= 1")


class SGNetDeployment:
    """A simulated SGNET deployment ready to observe an attack stream."""

    def __init__(self, source: RandomSource, config: DeploymentConfig | None = None) -> None:
        self.config = config or DeploymentConfig()
        self._source = source
        self.gateway = Gateway(
            FSMLearner(
                refine_threshold=self.config.refine_threshold,
                min_support=self.config.fsm_min_support,
            )
        )
        self.shellcode = ShellcodeAnalyzer(self.config.shellcode)
        self.sensors: dict[int, HoneypotSensor] = {}
        self.sensor_addresses: list[IPv4Address] = []
        self._build_sensors()
        self._proxied_by_week: dict[int, int] = {}
        self._handled_by_week: dict[int, int] = {}
        self.n_background_filtered = 0
        #: Dedup cache for malware observables: identical downloaded
        #: bytes (same content seed, length and truncation flag) hash,
        #: parse and magic-sniff to the same frozen observable, so the
        #: work runs once per distinct payload instead of once per event.
        self._observable_cache: dict[tuple[str, int, int, bool], MalwareObservable] = {}

    def _build_sensors(self) -> None:
        rng = self._source.rng("deployment", "addresses")
        sampler = UniformSampler()
        networks: set[int] = set()
        while len(networks) < self.config.n_networks:
            networks.add(sampler.sample(rng).slash24)
        for network in sorted(networks):
            offsets = rng.sample(range(1, 255), self.config.sensors_per_network)
            for offset in sorted(offsets):
                address = IPv4Address((network << 8) | offset)
                self.sensors[int(address)] = HoneypotSensor(address, self.gateway)
                self.sensor_addresses.append(address)
        obs_metrics.active().gauge("honeypot.sensors_deployed").set(len(self.sensors))

    @property
    def sensor_networks(self) -> list[int]:
        """The /24 prefixes of the monitored network locations."""
        return sorted({address.slash24 for address in self.sensor_addresses})

    def observe(
        self,
        attempts: Iterable[AttackAttempt],
        *,
        background: Iterable[BackgroundProbe] | None = None,
    ) -> SGNetDataset:
        """Run the stream through the pipeline and build the dataset.

        ``background`` is an optional time-ordered stream of
        non-injection probes; they exercise sensors and the oracle but
        never become attack events (the dataset records injections only,
        as SGNET does).  Both streams must be individually time-ordered.
        """
        merged = self._merge_streams(attempts, background)
        staged: list[StagedObservation] = []
        self.n_background_filtered = 0
        for kind, item in merged:
            if kind == "background":
                sensor = self.sensors.get(int(item.sensor))
                if sensor is not None:
                    sensor.handle(item.conversation, is_injection=False)
                    self.n_background_filtered += 1
                continue
            staged.append(self.stage_attempt(item))

        self.gateway.finalize()

        dataset = SGNetDataset()
        for observation in staged:
            self.add_final_event(dataset, observation)
        self.emit_dataset_metrics(dataset)
        return dataset

    def stage_attempt(self, attempt: AttackAttempt) -> StagedObservation:
        """Pass A for one attack: online learning + shellcode pipeline.

        Runs the conversation through the sensor (which learns), draws
        the attempt's pipeline substream, emulates the shellcode and the
        download, and reduces the result to a :class:`StagedObservation`
        — the binary bytes do not survive this call.
        """
        sensor = self.sensors.get(int(attempt.sensor))
        require(
            sensor is not None,
            f"attack aimed at unmonitored address {attempt.sensor}",
        )
        path_id = sensor.handle(attempt.conversation)
        week = (attempt.timestamp) // WEEK_SECONDS
        if path_id == UNKNOWN_PATH_ID:
            self._proxied_by_week[week] = self._proxied_by_week.get(week, 0) + 1
        else:
            self._handled_by_week[week] = self._handled_by_week.get(week, 0) + 1

        rng = self._source.rng(
            "pipeline", attempt.variant_key, attempt.timestamp, int(attempt.source)
        )
        payload_obs = self.shellcode.analyze(attempt.payload, attempt.filename, rng)
        malware_obs = None
        if payload_obs is not None:
            outcome = self.shellcode.download(attempt.binary, rng)
            if outcome.succeeded:
                malware_obs = self.malware_observable_for(
                    attempt, outcome.data, outcome.truncated
                )
        return StagedObservation(
            timestamp=attempt.timestamp,
            source=attempt.source,
            sensor=attempt.sensor,
            conversation=attempt.conversation,
            dst_port=attempt.dst_port,
            truth=attempt.truth,
            behavior=attempt.behavior,
            payload=payload_obs,
            malware=malware_obs,
        )

    def add_final_event(
        self, dataset: SGNetDataset, observation: StagedObservation
    ) -> AttackEvent:
        """Pass B for one staged observation: final FSM path + event.

        Must run after :meth:`Gateway.finalize`; re-classifies the
        conversation against the final FSM and appends the finished
        event to ``dataset``.  Returns the event so callers can also
        stream it into a columnar builder (see
        :mod:`repro.experiments.shards`).
        """
        final_path = self.gateway.classify(observation.conversation)
        event = AttackEvent(
            event_id=dataset.next_event_id(),
            timestamp=observation.timestamp,
            source=observation.source,
            sensor=observation.sensor,
            exploit=ExploitObservable(
                fsm_path_id=final_path if final_path != UNKNOWN_PATH_ID else 0,
                dst_port=observation.dst_port,
            ),
            payload=observation.payload,
            malware=observation.malware,
            ground_truth=observation.truth,
        )
        dataset.add_event(event, behavior_handle=observation.behavior)
        return event

    def emit_dataset_metrics(self, dataset: SGNetDataset) -> None:
        """Record the observation-stage counters for a finished dataset."""
        registry = obs_metrics.active()
        registry.counter("honeypot.events_observed").inc(len(dataset))
        registry.counter("honeypot.samples_collected").inc(dataset.n_samples)
        registry.counter("honeypot.background_filtered").inc(self.n_background_filtered)

    @staticmethod
    def _merge_streams(
        attempts: Iterable[AttackAttempt],
        background: Iterable[BackgroundProbe] | None,
    ) -> Iterable[tuple[str, object]]:
        """Merge the two time-ordered streams into one tagged stream."""
        import heapq

        tagged_attacks = (("attack", a) for a in attempts)
        if background is None:
            return tagged_attacks
        tagged_probes = (("background", p) for p in background)
        return heapq.merge(
            tagged_attacks, tagged_probes, key=lambda pair: pair[1].timestamp
        )

    def malware_observable_for(
        self, attempt: AttackAttempt, data: bytes, truncated: bool
    ) -> MalwareObservable:
        """The observable of one downloaded payload, deduplicated.

        Attempts that tracked their content seed share one frozen
        observable per distinct ``(variant, seed, length, truncated)``
        payload — same input bytes, so the cached value equals what a
        fresh :meth:`_malware_observable` call would compute.  Untracked
        attempts always compute fresh.
        """
        if attempt.content_seed is None:
            return self._malware_observable(data, truncated)
        key = (attempt.variant_key, attempt.content_seed, len(data), truncated)
        observable = self._observable_cache.get(key)
        if observable is None:
            observable = self._malware_observable(data, truncated)
            self._observable_cache[key] = observable
        return observable

    @staticmethod
    def _malware_observable(data: bytes, truncated: bool) -> MalwareObservable:
        pe_info = None
        corrupted = truncated
        try:
            pe_info = parse_pe(data)
        except PEFormatError:
            corrupted = True
        return MalwareObservable(
            md5=md5_hex(data),
            size=len(data),
            magic=magic_type(data),
            pe=pe_info,
            corrupted=corrupted,
        )

    def proxy_ratio_by_week(self) -> dict[int, float]:
        """Fraction of conversations proxied to the honeyfarm, per week.

        The downward trend of this ratio is the economic argument for
        ScriptGen learning: sensors become autonomous as the FSM grows.
        """
        ratios: dict[int, float] = {}
        weeks = set(self._proxied_by_week) | set(self._handled_by_week)
        for week in sorted(weeks):
            proxied = self._proxied_by_week.get(week, 0)
            handled = self._handled_by_week.get(week, 0)
            total = proxied + handled
            ratios[week] = proxied / total if total else 0.0
        return ratios
