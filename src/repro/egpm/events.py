"""Record types for observed code-injection attacks.

Observables carry only what the deployment could actually see; the
generator's ground-truth labels ride along in a separate
:class:`GroundTruth` record that the clustering code never reads — it
exists solely so tests and validation can score cluster quality.

All record types here are ``slots=True`` dataclasses: at paper scale
the dataset holds ~15k events (millions at the ROADMAP target), and
dropping the per-instance ``__dict__`` cuts their resident size by
roughly a third.  The frozen ones pickle through
:func:`~repro.util.pickling.field_tuple_state`, so a cache round trip
of a run does not call ``dataclasses.fields()`` once per record.  The
analysis layer's ``Observation`` is already a plain tuple
(:data:`repro.egpm.columnar.Observation`), so it needs no such
treatment.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.net.address import IPv4Address
from repro.peformat.structures import PEInfo
from repro.util.pickling import field_tuple_state
from repro.util.validation import require


class InteractionType(str, enum.Enum):
    """How the malware reached the victim (a pi-dimension feature).

    The paper distinguishes PUSH-based downloads (attacker connects to
    the victim and pushes the sample), PULL-based "phone home" downloads
    (victim connects back to the attacker), and downloads from a central
    repository (a third party distinct from the attacker).
    """

    PUSH = "push"
    PULL = "pull"
    CENTRAL = "central"


@field_tuple_state
@dataclass(frozen=True, slots=True)
class ExploitObservable:
    """Epsilon-dimension observables of one attack.

    ``fsm_path_id`` is the identifier of the ScriptGen FSM path that
    handled the exploit conversation.  FSM paths conflate protocol
    structure with implementation specificities (usernames, NetBIOS
    connection identifiers), which is why distinct malware families using
    the same vulnerability can still land on distinct paths.
    """

    fsm_path_id: int
    dst_port: int

    def __post_init__(self) -> None:
        require(self.fsm_path_id >= 0, "fsm_path_id must be >= 0")
        require(0 < self.dst_port < 65536, f"bad destination port {self.dst_port}")


@field_tuple_state
@dataclass(frozen=True, slots=True)
class PayloadObservable:
    """Pi-dimension observables extracted by shellcode analysis.

    ``filename`` is ``None`` when the protocol has no filename concept
    (e.g. a raw push over an ephemeral connection); ``port`` is ``None``
    when the shellcode lets the OS pick one.
    """

    protocol: str
    interaction: InteractionType
    filename: str | None = None
    port: int | None = None

    def __post_init__(self) -> None:
        require(bool(self.protocol), "protocol must be non-empty")
        if self.port is not None:
            require(0 < self.port < 65536, f"bad payload port {self.port}")


@field_tuple_state
@dataclass(frozen=True, slots=True)
class MalwareObservable:
    """Mu-dimension observables of the downloaded binary.

    ``pe`` is ``None`` when the binary is not a parseable PE (truncated
    Nepenthes downloads yield ``corrupted=True`` with magic ``'data'``).
    """

    md5: str
    size: int
    magic: str
    pe: PEInfo | None
    corrupted: bool = False

    def __post_init__(self) -> None:
        require(len(self.md5) == 32, "md5 must be a 32-hex-digit string")
        require(self.size >= 0, "size must be >= 0")


@field_tuple_state
@dataclass(frozen=True, slots=True)
class GroundTruth:
    """Generator-side labels, for validation only.

    The clustering and analysis layers must never read this: it plays the
    role of the unknowable "true" family structure behind real samples.
    """

    family: str
    variant: str
    exploit_name: str
    payload_name: str


@field_tuple_state
@dataclass(frozen=True, slots=True)
class AttackEvent:
    """One observed code-injection attack, fully enriched.

    ``payload`` and ``malware`` may be ``None`` for attacks whose
    shellcode emulation or download failed; such events still contribute
    to the epsilon dimension.
    """

    event_id: int
    timestamp: int
    source: IPv4Address
    sensor: IPv4Address
    exploit: ExploitObservable
    payload: PayloadObservable | None = None
    malware: MalwareObservable | None = None
    ground_truth: GroundTruth | None = None

    def __post_init__(self) -> None:
        require(self.event_id >= 0, "event_id must be >= 0")
        require(self.timestamp >= 0, "timestamp must be >= 0")

    @property
    def has_sample(self) -> bool:
        """Whether the attack yielded a downloadable binary at all."""
        return self.malware is not None

    @property
    def has_valid_sample(self) -> bool:
        """Whether the attack yielded an uncorrupted binary."""
        return self.malware is not None and not self.malware.corrupted


@dataclass(slots=True)
class SampleRecord:
    """Per-distinct-binary record (keyed by MD5) with enrichment results.

    ``behavior_handle`` is the stand-in for the binary's code: an opaque
    reference the sandbox interprets when the sample is executed, playing
    the role the raw bytes play for the real Anubis.  ``enrichment``
    accumulates analysis metadata (AV labels, behavioural profile ids).
    """

    md5: str
    observable: MalwareObservable
    first_seen: int
    last_seen: int
    n_events: int = 1
    behavior_handle: Any = None
    ground_truth: GroundTruth | None = None
    enrichment: dict[str, Any] = field(default_factory=dict)

    def record_event(self, timestamp: int) -> None:
        """Fold one more sighting of this binary into the record."""
        self.first_seen = min(self.first_seen, timestamp)
        self.last_seen = max(self.last_seen, timestamp)
        self.n_events += 1


def event_to_dict(event: AttackEvent) -> Mapping[str, Any]:
    """Serialize an event to JSON-compatible primitives (see dataset I/O)."""
    payload = None
    if event.payload is not None:
        payload = {
            "protocol": event.payload.protocol,
            "interaction": event.payload.interaction.value,
            "filename": event.payload.filename,
            "port": event.payload.port,
        }
    malware = None
    if event.malware is not None:
        pe = None
        if event.malware.pe is not None:
            info = event.malware.pe
            pe = {
                "machine_type": info.machine_type,
                "n_sections": info.n_sections,
                "os_version": info.os_version,
                "linker_version": info.linker_version,
                "subsystem": info.subsystem,
                "section_names": list(info.section_names),
                "imports": {dll: list(syms) for dll, syms in info.imports.items()},
                "file_size": info.file_size,
            }
        malware = {
            "md5": event.malware.md5,
            "size": event.malware.size,
            "magic": event.malware.magic,
            "corrupted": event.malware.corrupted,
            "pe": pe,
        }
    truth = None
    if event.ground_truth is not None:
        truth = {
            "family": event.ground_truth.family,
            "variant": event.ground_truth.variant,
            "exploit_name": event.ground_truth.exploit_name,
            "payload_name": event.ground_truth.payload_name,
        }
    return {
        "event_id": event.event_id,
        "timestamp": event.timestamp,
        "source": int(event.source),
        "sensor": int(event.sensor),
        "exploit": {
            "fsm_path_id": event.exploit.fsm_path_id,
            "dst_port": event.exploit.dst_port,
        },
        "payload": payload,
        "malware": malware,
        "ground_truth": truth,
    }


def event_from_dict(data: Mapping[str, Any]) -> AttackEvent:
    """Inverse of :func:`event_to_dict`."""
    payload = None
    if data.get("payload") is not None:
        p = data["payload"]
        payload = PayloadObservable(
            protocol=p["protocol"],
            interaction=InteractionType(p["interaction"]),
            filename=p.get("filename"),
            port=p.get("port"),
        )
    malware = None
    if data.get("malware") is not None:
        m = data["malware"]
        pe = None
        if m.get("pe") is not None:
            raw = m["pe"]
            imports = {dll: tuple(syms) for dll, syms in raw["imports"].items()}
            pe = PEInfo(
                machine_type=raw["machine_type"],
                n_sections=raw["n_sections"],
                os_version=raw["os_version"],
                linker_version=raw["linker_version"],
                subsystem=raw["subsystem"],
                section_names=tuple(raw["section_names"]),
                imported_dlls=tuple(imports.keys()),
                imports=imports,
                file_size=raw["file_size"],
            )
        malware = MalwareObservable(
            md5=m["md5"],
            size=m["size"],
            magic=m["magic"],
            pe=pe,
            corrupted=m.get("corrupted", False),
        )
    truth = None
    if data.get("ground_truth") is not None:
        t = data["ground_truth"]
        truth = GroundTruth(
            family=t["family"],
            variant=t["variant"],
            exploit_name=t["exploit_name"],
            payload_name=t["payload_name"],
        )
    return AttackEvent(
        event_id=data["event_id"],
        timestamp=data["timestamp"],
        source=IPv4Address(data["source"]),
        sensor=IPv4Address(data["sensor"]),
        exploit=ExploitObservable(
            fsm_path_id=data["exploit"]["fsm_path_id"],
            dst_port=data["exploit"]["dst_port"],
        ),
        payload=payload,
        malware=malware,
        ground_truth=truth,
    )
