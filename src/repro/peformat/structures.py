"""Declarative PE structure descriptions and parsed-header records.

:class:`PESpec` is what a malware *codebase* looks like: the builder
turns a spec plus a content seed into bytes; a change to the spec models
a recompilation or patch (new linker version, different size, new
imports), while a change to the content seed alone models a polymorphic
mutation that EPM's header features are designed to see through.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

from repro.util.validation import require

#: COFF machine types (subset).
MACHINE_I386 = 0x14C  # decimal 332, the value quoted in the paper's M-cluster 13
MACHINE_AMD64 = 0x8664

#: Section characteristic flags (subset of IMAGE_SCN_*).
SCN_CODE = 0x00000020
SCN_INITIALIZED_DATA = 0x00000040
SCN_MEM_EXECUTE = 0x20000000
SCN_MEM_READ = 0x40000000
SCN_MEM_WRITE = 0x80000000

#: Subsystem values.
SUBSYSTEM_GUI = 2
SUBSYSTEM_CUI = 3

FILE_ALIGNMENT = 0x200
SECTION_ALIGNMENT = 0x1000


class PEFormatError(ValueError):
    """Raised by the parser on malformed or truncated PE images.

    Mirrors ``pefile.PEFormatError``: truncated downloads in the dataset
    surface as this error and are recorded as non-parseable samples.
    """


@dataclass(frozen=True)
class SectionSpec:
    """One section of a PE spec.

    ``name`` is at most 8 bytes once encoded; shorter names are padded
    with NULs exactly as in the on-disk section table (the paper quotes
    section names with explicit ``\\x00`` padding).
    """

    name: str
    characteristics: int = SCN_CODE | SCN_MEM_EXECUTE | SCN_MEM_READ

    def __post_init__(self) -> None:
        require(len(self.name.encode("latin-1")) <= 8, f"section name too long: {self.name!r}")

    @property
    def padded_name(self) -> str:
        """The 8-byte NUL-padded name as it appears in the section table."""
        return self.name + "\x00" * (8 - len(self.name))


@dataclass(frozen=True)
class PESpec:
    """Structural description of a PE binary (a codebase's shape).

    Fields map one-to-one onto the μ-dimension features of Table 1 in the
    paper.  ``linker_version`` packs major/minor as ``major*10 + minor``
    digits the way the paper quotes them (e.g. 92 = linker 9.2);
    ``os_version`` likewise (64 = OS version 6.4... the paper quotes the
    raw packed value, which we preserve as an opaque integer feature).
    """

    machine_type: int = MACHINE_I386
    sections: tuple[SectionSpec, ...] = (
        SectionSpec(".text"),
        SectionSpec(".rdata", SCN_INITIALIZED_DATA | SCN_MEM_READ),
        SectionSpec(".data", SCN_INITIALIZED_DATA | SCN_MEM_READ | SCN_MEM_WRITE),
    )
    #: A dict, so it stays out of ``hash()``; equality and ``repr`` (the
    #: PE timestamp seed) still include it.
    imports: Mapping[str, tuple[str, ...]] = field(
        default_factory=lambda: {"KERNEL32.dll": ("GetProcAddress", "LoadLibraryA")},
        hash=False,
    )
    os_version: int = 64
    linker_version: int = 92
    subsystem: int = SUBSYSTEM_GUI
    file_size: int = 59_904

    def __post_init__(self) -> None:
        require(len(self.sections) >= 1, "PESpec needs at least one section")
        require(self.file_size > 0, "file_size must be positive")
        require(self.linker_version >= 0, "linker_version must be >= 0")
        require(self.os_version >= 0, "os_version must be >= 0")
        # Freeze the imports mapping into a plain dict copy to guard mutation.
        object.__setattr__(self, "imports", dict(self.imports))

    @property
    def n_sections(self) -> int:
        """Number of sections (a Table 1 feature)."""
        return len(self.sections)

    @property
    def n_dlls(self) -> int:
        """Number of imported DLLs (a Table 1 feature)."""
        return len(self.imports)

    @property
    def linker_major(self) -> int:
        """Major linker version byte."""
        return self.linker_version // 10

    @property
    def linker_minor(self) -> int:
        """Minor linker version byte."""
        return self.linker_version % 10

    @property
    def os_major(self) -> int:
        """Major OS version field."""
        return self.os_version // 10

    @property
    def os_minor(self) -> int:
        """Minor OS version field."""
        return self.os_version % 10

    def with_size(self, file_size: int) -> "PESpec":
        """A copy with a different target file size (an Allaple-style patch)."""
        return replace(self, file_size=file_size)

    def with_linker(self, linker_version: int) -> "PESpec":
        """A copy recompiled with a different linker version."""
        return replace(self, linker_version=linker_version)

    def with_sections(self, names: Sequence[str]) -> "PESpec":
        """A copy with renamed sections (same count and characteristics)."""
        require(len(names) == len(self.sections), "must rename every section")
        new_sections = tuple(
            replace(sec, name=name) for sec, name in zip(self.sections, names)
        )
        return replace(self, sections=new_sections)

    def with_imports(self, imports: Mapping[str, Sequence[str]]) -> "PESpec":
        """A copy with a different import table."""
        frozen = {dll: tuple(symbols) for dll, symbols in imports.items()}
        return replace(self, imports=frozen)


@dataclass(frozen=True)
class PEInfo:
    """Header features recovered from a PE image by :func:`parse_pe`.

    This is the ``pefile``-shaped view the EPM feature extractor consumes.
    Section names keep their NUL padding, matching the raw section-table
    bytes the paper quotes for M-cluster 13.
    """

    machine_type: int
    n_sections: int
    os_version: int
    linker_version: int
    subsystem: int
    section_names: tuple[str, ...]
    imported_dlls: tuple[str, ...]
    #: A dict, so it stays out of ``hash()``; equality still compares it.
    imports: Mapping[str, tuple[str, ...]] = field(hash=False)
    file_size: int

    @property
    def n_dlls(self) -> int:
        """Number of imported DLLs."""
        return len(self.imported_dlls)

    @property
    def kernel32_symbols(self) -> tuple[str, ...]:
        """Symbols imported from KERNEL32.dll (a Table 1 feature)."""
        for dll, symbols in self.imports.items():
            if dll.upper() == "KERNEL32.DLL":
                return symbols
        return ()
