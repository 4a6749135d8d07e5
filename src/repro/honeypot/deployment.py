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
Between the two, each distinct downloaded binary is built once and
reduced to its malware observable.
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
from repro.malware.landscape import AttackAttempt
from repro.net.address import IPv4Address
from repro.net.sampling import UniformSampler
from repro.obs import metrics as obs_metrics
from repro.peformat.builder import PEBuilder, build_pe
from repro.peformat.magic import magic_type
from repro.peformat.parser import parse_pe
from repro.peformat.structures import PEFormatError, PEInfo, PESpec
from repro.util.hashing import md5_hex
from repro.util.pickling import field_tuple_state
from repro.util.rng import RandomSource
from repro.util.timegrid import WEEK_SECONDS
from repro.util.validation import ValidationError, require


#: A downloaded payload: ``(variant_key, content_seed, length,
#: truncated)``.  Equal keys mean equal bytes, the first ``length``
#: bytes of ``build_pe(spec, content_seed)``.
DownloadKey = tuple[str, int, int, bool]


@field_tuple_state
@dataclass(frozen=True, slots=True)
class StagedObservation:
    """One attack after pass A.

    Everything pass B (:meth:`SGNetDeployment.add_final_event`) needs to
    emit the final :class:`AttackEvent`.  ``malware`` is the payload's
    observable, or its :data:`DownloadKey` while the image is not built
    yet; no staged observation holds binary bytes.
    """

    timestamp: int
    source: IPv4Address
    sensor: IPv4Address
    conversation: tuple[tuple[str, ...], ...]
    dst_port: int
    truth: GroundTruth | None
    behavior: object
    payload: PayloadObservable | None
    malware: MalwareObservable | DownloadKey | None


class SharedValues:
    """One :meth:`SGNetDeployment.observe` pass's lookup tables.

    Polymorphic variants keep their PE headers, and many attacks carry
    the same shellcode observables, so the pass mints the same values
    over and over.  Each table hands out one object per distinct value:
    events share the object, and a pickle of the dataset stores and
    rebuilds it once (pickle memoizes by identity).  The tables live
    only as long as the pass that fills them.
    """

    __slots__ = ("observables", "pending", "payloads", "pe_infos", "magics")

    def __init__(self) -> None:
        #: Malware observables by downloaded payload: identical bytes
        #: hash, parse and magic-sniff to the same frozen observable, so
        #: the work runs once per distinct payload instead of once per
        #: event.
        self.observables: dict[DownloadKey, MalwareObservable] = {}
        #: Payloads staged but not built yet: key -> (the one key object
        #: the staged events share, the spec to build it from).
        self.pending: dict[DownloadKey, tuple[DownloadKey, PESpec]] = {}
        #: Payload observables by their field tuple.
        self.payloads: dict[tuple, PayloadObservable] = {}
        #: Parsed PE headers and libmagic strings, each keyed by itself.
        self.pe_infos: dict[PEInfo, PEInfo] = {}
        self.magics: dict[str, str] = {}


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

    def observe(self, attempts: Iterable[AttackAttempt]) -> SGNetDataset:
        """Run the time-ordered attack stream through the pipeline and
        build the dataset."""
        shared = SharedValues()
        staged = [self.stage_attempt(attempt, shared) for attempt in attempts]

        self.gateway.finalize()
        self.materialize_downloads(shared)

        dataset = SGNetDataset()
        exploits: dict[tuple[int, int], ExploitObservable] = {}
        for observation in staged:
            self.add_final_event(dataset, observation, exploits, shared)
        registry = obs_metrics.active()
        registry.counter("honeypot.events_observed").inc(len(dataset))
        registry.counter("honeypot.samples_collected").inc(dataset.n_samples)
        return dataset

    def stage_attempt(self, attempt: AttackAttempt, shared: SharedValues) -> StagedObservation:
        """Pass A for one attack: online learning + shellcode pipeline.

        Runs the conversation through the sensor (which learns), draws
        the attempt's pipeline substream, emulates the shellcode and the
        download from the binary's size alone, and reduces the result to
        a :class:`StagedObservation`.  A successful download is staged
        as its :data:`DownloadKey`, queued in ``shared.pending`` for
        :meth:`materialize_downloads`, unless ``shared`` already holds
        its observable.
        """
        sensor = self.sensors.get(int(attempt.sensor))
        if sensor is None:
            raise ValidationError(f"attack aimed at unmonitored address {attempt.sensor}")
        path_id = sensor.handle(attempt.conversation)
        week = (attempt.timestamp) // WEEK_SECONDS
        if path_id == UNKNOWN_PATH_ID:
            self._proxied_by_week[week] = self._proxied_by_week.get(week, 0) + 1
        else:
            self._handled_by_week[week] = self._handled_by_week.get(week, 0) + 1

        rng = self._source.rng(
            "pipeline", attempt.variant_key, attempt.timestamp, int(attempt.source)
        )
        payload_obs = self.shellcode.analyze(
            attempt.payload, attempt.filename, rng, shared.payloads
        )
        malware = None
        if payload_obs is not None:
            spec = attempt.pe_spec
            outcome = self.shellcode.download(spec.file_size, rng)
            if outcome.succeeded:
                key = (attempt.variant_key, attempt.content_seed, outcome.length, outcome.truncated)
                malware = shared.observables.get(key)
                if malware is None:
                    malware = shared.pending.setdefault(key, (key, spec))[0]
        return StagedObservation(
            timestamp=attempt.timestamp,
            source=attempt.source,
            sensor=attempt.sensor,
            conversation=attempt.conversation,
            dst_port=attempt.dst_port,
            truth=attempt.truth,
            behavior=attempt.behavior,
            payload=payload_obs,
            malware=malware,
        )

    def materialize_downloads(self, shared: SharedValues) -> None:
        """Build each pending image once and reduce it to its observables.

        Runs between pass A and pass B.  The pending downloads are
        grouped by spec, then by content seed: each spec is laid out
        once, each distinct ``(spec, seed)`` image is built once, and
        every received prefix of it becomes one observable in
        ``shared.observables``.  One layout and one image are alive at a
        time, and none outlives this call.
        """
        groups: dict[PESpec, dict[int, list[DownloadKey]]] = {}
        for key, spec in shared.pending.values():
            groups.setdefault(spec, {}).setdefault(key[1], []).append(key)
        shared.pending.clear()
        builder = PEBuilder()
        for spec, seeds in groups.items():
            for seed, keys in seeds.items():
                image = build_pe(spec, seed, builder)
                for key in keys:
                    self.malware_observable_for(key, image, shared)
                del image  # before the next image is built

    def add_final_event(
        self,
        dataset: SGNetDataset,
        observation: StagedObservation,
        exploits: dict[tuple[int, int], ExploitObservable],
        shared: SharedValues,
    ) -> None:
        """Pass B for one staged observation: final FSM path + event.

        Must run after :meth:`Gateway.finalize` and
        :meth:`materialize_downloads`; re-classifies the conversation
        against the final FSM, resolves a staged :data:`DownloadKey`
        through ``shared.observables``, and appends the finished event
        to ``dataset``.  ``exploits`` holds the pass's epsilon
        observables by ``(path, port)``: the record is frozen, so events
        sharing the pair share one object (70,019 events carry 30 pairs
        at 8x scale), and the columnar builder extracts epsilon once per
        object.
        """
        final_path = self.gateway.classify(observation.conversation)
        key = (final_path if final_path != UNKNOWN_PATH_ID else 0, observation.dst_port)
        exploit = exploits.get(key)
        if exploit is None:
            exploit = exploits[key] = ExploitObservable(*key)
        malware = observation.malware
        if isinstance(malware, tuple):
            malware = shared.observables[malware]
        event = AttackEvent(
            event_id=dataset.next_event_id(),
            timestamp=observation.timestamp,
            source=observation.source,
            sensor=observation.sensor,
            exploit=exploit,
            payload=observation.payload,
            malware=malware,
            ground_truth=observation.truth,
        )
        dataset.add_event(event, behavior_handle=observation.behavior)

    def malware_observable_for(
        self, key: DownloadKey, image: bytes, shared: SharedValues
    ) -> MalwareObservable:
        """The observable of one downloaded payload, stored in ``shared``.

        ``image`` is the whole binary ``key`` names; the download
        received its first ``length`` bytes, which are hashed, parsed
        and magic-sniffed.  Equal PE headers and magic strings share one
        object through the pass's ``shared`` tables.
        """
        _variant, _seed, length, truncated = key
        data = image[:length]
        pe_info = None
        corrupted = truncated
        try:
            pe_info = parse_pe(data)
        except PEFormatError:
            corrupted = True
        else:
            pe_info = shared.pe_infos.setdefault(pe_info, pe_info)
        magic = magic_type(data)
        observable = shared.observables[key] = MalwareObservable(
            md5=md5_hex(data),
            size=len(data),
            magic=shared.magics.setdefault(magic, magic),
            pe=pe_info,
            corrupted=corrupted,
        )
        return observable

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
