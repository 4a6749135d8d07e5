"""Phase 1 — feature definition (Table 1 of the paper).

A :class:`FeatureSet` is an ordered list of named features for one EPM
dimension, each with an extractor from :class:`AttackEvent` to a hashable
value.  The default sets reproduce Table 1 exactly:

========  =============================================
Epsilon   FSM path identifier, destination port
Pi        download protocol, filename, port, interaction type
Mu        MD5, file size, libmagic type, (PE) machine type,
          number of sections, number of imported DLLs, OS version,
          linker version, section names, imported DLLs,
          referenced Kernel32.dll symbols
========  =============================================

Events lacking a dimension entirely (no shellcode analysed, no binary
downloaded) do not contribute instances to that dimension.  Missing
sub-values (a non-PE binary has no header features) extract to ``None``,
which behaves like any other value in invariant discovery.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Hashable

from repro.egpm.events import AttackEvent
from repro.util.validation import require


class Dimension(str, enum.Enum):
    """The three clusterable dimensions of the EGPM model."""

    EPSILON = "epsilon"
    PI = "pi"
    MU = "mu"


@dataclass(frozen=True)
class FeatureDefinition:
    """One named feature with its extractor."""

    name: str
    extract: Callable[[AttackEvent], Hashable]


class FeatureSet:
    """An ordered feature list for one dimension."""

    def __init__(
        self,
        dimension: Dimension,
        features: list[FeatureDefinition],
        applies: Callable[[AttackEvent], bool],
        observable: Callable[[AttackEvent], object] | None = None,
    ) -> None:
        require(len(features) > 0, "FeatureSet needs at least one feature")
        names = [f.name for f in features]
        require(len(set(names)) == len(names), "duplicate feature names")
        self.dimension = dimension
        self.features = list(features)
        self._applies = applies
        #: The one sub-object of the event every feature reads, if
        #: there is one: events carrying the *same* object extract the
        #: same tuple, so the columnar builder extracts it once per object.
        self.observable = observable

    @property
    def names(self) -> list[str]:
        """Feature names, in extraction order."""
        return [f.name for f in self.features]

    def __len__(self) -> int:
        return len(self.features)

    def applies_to(self, event: AttackEvent) -> bool:
        """Whether ``event`` carries this dimension at all."""
        return self._applies(event)

    def extract(self, event: AttackEvent) -> tuple[Hashable, ...]:
        """The event's instance tuple for this dimension."""
        require(self.applies_to(event), "event lacks this dimension")
        return tuple(f.extract(event) for f in self.features)


def epsilon_features() -> FeatureSet:
    """Table 1, epsilon dimension."""
    return FeatureSet(
        Dimension.EPSILON,
        [
            FeatureDefinition("fsm_path_id", lambda e: e.exploit.fsm_path_id),
            FeatureDefinition("dst_port", lambda e: e.exploit.dst_port),
        ],
        applies=lambda e: True,
        observable=lambda e: e.exploit,
    )


def pi_features() -> FeatureSet:
    """Table 1, pi dimension."""
    return FeatureSet(
        Dimension.PI,
        [
            FeatureDefinition("protocol", lambda e: e.payload.protocol),
            FeatureDefinition("filename", lambda e: e.payload.filename),
            FeatureDefinition("port", lambda e: e.payload.port),
            FeatureDefinition("interaction", lambda e: e.payload.interaction.value),
        ],
        applies=lambda e: e.payload is not None,
        observable=lambda e: e.payload,
    )


def _pe_feature(extract: Callable) -> Callable[[AttackEvent], Hashable]:
    def extractor(event: AttackEvent) -> Hashable:
        pe = event.malware.pe
        return None if pe is None else extract(pe)

    return extractor


def mu_features() -> FeatureSet:
    """Table 1, mu dimension."""
    return FeatureSet(
        Dimension.MU,
        [
            FeatureDefinition("md5", lambda e: e.malware.md5),
            FeatureDefinition("size", lambda e: e.malware.size),
            FeatureDefinition("magic", lambda e: e.malware.magic),
            FeatureDefinition("machine_type", _pe_feature(lambda pe: pe.machine_type)),
            FeatureDefinition("n_sections", _pe_feature(lambda pe: pe.n_sections)),
            FeatureDefinition("n_dlls", _pe_feature(lambda pe: pe.n_dlls)),
            FeatureDefinition("os_version", _pe_feature(lambda pe: pe.os_version)),
            FeatureDefinition(
                "linker_version", _pe_feature(lambda pe: pe.linker_version)
            ),
            FeatureDefinition(
                "section_names", _pe_feature(lambda pe: pe.section_names)
            ),
            FeatureDefinition(
                "imported_dlls", _pe_feature(lambda pe: pe.imported_dlls)
            ),
            FeatureDefinition(
                "kernel32_symbols", _pe_feature(lambda pe: pe.kernel32_symbols)
            ),
        ],
        applies=lambda e: e.malware is not None,
        observable=lambda e: e.malware,
    )


def default_feature_sets() -> dict[Dimension, FeatureSet]:
    """The paper's three feature sets, keyed by dimension."""
    return {
        Dimension.EPSILON: epsilon_features(),
        Dimension.PI: pi_features(),
        Dimension.MU: mu_features(),
    }
