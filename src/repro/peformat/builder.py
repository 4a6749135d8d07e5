"""Builder: :class:`PESpec` + content seed -> a real PE image (bytes).

The builder emits byte-exact, parseable PE32 images: DOS header, COFF
header, optional header, section table, and a walkable import directory.
Section payloads are filled from a deterministic stream derived from the
*content seed*, so:

* same spec + same seed  -> identical bytes (same MD5),
* same spec + new seed   -> different bytes, **identical headers and
  size** — exactly the mutation scope of Allaple-style polymorphic
  engines that EPM's μ features are designed to survive.
"""

from __future__ import annotations

import random
import struct

import numpy as np

from repro.peformat.structures import (
    FILE_ALIGNMENT,
    PESpec,
    SECTION_ALIGNMENT,
)
from repro.util.hashing import stable_hash64
from repro.util.rng import derive_seed
from repro.util.validation import require

_DOS_HEADER_SIZE = 0x40
_PE_OFFSET = 0x80
_COFF_SIZE = 20
_OPTIONAL_HEADER_SIZE = 224  # PE32 with 16 data directories
_SECTION_HEADER_SIZE = 40
_IMAGE_BASE = 0x0040_0000

_DOS_STUB_TEXT = b"This program cannot be run in DOS mode.\r\r\n$"


def _align(value: int, alignment: int) -> int:
    return (value + alignment - 1) // alignment * alignment


def _headers_size(n_sections: int) -> int:
    raw = _PE_OFFSET + 4 + _COFF_SIZE + _OPTIONAL_HEADER_SIZE
    raw += n_sections * _SECTION_HEADER_SIZE
    return _align(raw, FILE_ALIGNMENT)


def _import_blob(spec: PESpec, base_rva: int) -> tuple[bytes, int]:
    """Build the import directory for ``spec`` assuming it lands at ``base_rva``.

    Returns ``(blob, descriptor_table_size)``.  Layout: descriptor table,
    DLL name strings, OriginalFirstThunk arrays, FirstThunk arrays,
    hint/name entries.
    """
    dlls = list(spec.imports.items())
    n_desc = len(dlls) + 1  # +1 null terminator descriptor
    desc_size = n_desc * 20

    # Pre-compute the layout offsets (relative to blob start).
    offset = desc_size
    name_offsets: list[int] = []
    for dll, _symbols in dlls:
        name_offsets.append(offset)
        offset += len(dll.encode("latin-1")) + 1
    offset = _align(offset, 4)
    oft_offsets: list[int] = []
    for _dll, symbols in dlls:
        oft_offsets.append(offset)
        offset += (len(symbols) + 1) * 4
    ft_offsets: list[int] = []
    for _dll, symbols in dlls:
        ft_offsets.append(offset)
        offset += (len(symbols) + 1) * 4
    hint_offsets: dict[tuple[int, int], int] = {}
    for i, (_dll, symbols) in enumerate(dlls):
        for j, symbol in enumerate(symbols):
            hint_offsets[(i, j)] = offset
            entry_len = 2 + len(symbol.encode("latin-1")) + 1
            offset += entry_len + (entry_len % 2)  # keep entries 2-aligned

    blob = bytearray(offset)
    # Descriptor table.
    for i, (_dll, _symbols) in enumerate(dlls):
        struct.pack_into(
            "<IIIII",
            blob,
            i * 20,
            base_rva + oft_offsets[i],  # OriginalFirstThunk
            0,  # TimeDateStamp
            0,  # ForwarderChain
            base_rva + name_offsets[i],  # Name
            base_rva + ft_offsets[i],  # FirstThunk
        )
    # (terminator descriptor stays all-zero)
    # DLL names.
    for i, (dll, _symbols) in enumerate(dlls):
        encoded = dll.encode("latin-1") + b"\x00"
        blob[name_offsets[i] : name_offsets[i] + len(encoded)] = encoded
    # Thunk arrays (OFT and FT identical) and hint/name entries.
    for i, (_dll, symbols) in enumerate(dlls):
        for j, symbol in enumerate(symbols):
            entry_rva = base_rva + hint_offsets[(i, j)]
            struct.pack_into("<I", blob, oft_offsets[i] + j * 4, entry_rva)
            struct.pack_into("<I", blob, ft_offsets[i] + j * 4, entry_rva)
            encoded = symbol.encode("latin-1") + b"\x00"
            pos = hint_offsets[(i, j)]
            struct.pack_into("<H", blob, pos, j)  # hint = ordinal index
            blob[pos + 2 : pos + 2 + len(encoded)] = encoded
        # (terminator thunk entries stay zero)
    return bytes(blob), desc_size


def minimum_file_size(spec: PESpec) -> int:
    """Smallest ``file_size`` :func:`build_pe` accepts for ``spec``.

    Headers plus one file-alignment unit per leading section plus the
    aligned import directory in the last section.
    """
    blob, _ = _import_blob(spec, 0)
    return (
        _headers_size(spec.n_sections)
        + (spec.n_sections - 1) * FILE_ALIGNMENT
        + _align(max(len(blob), 1), FILE_ALIGNMENT)
    )


def _layout(spec: PESpec) -> tuple[bytes, tuple[tuple[int, int], ...]]:
    """Validated image template plus the payload fill regions for ``spec``.

    The template is the full ``spec.file_size`` image with headers,
    section table and import directory in place and payload regions
    zeroed; ``regions`` lists the non-empty ``(start, length)`` spans to
    fill, in the order the content stream fills them.
    """
    require(
        spec.file_size % FILE_ALIGNMENT == 0,
        f"file_size must be a multiple of {FILE_ALIGNMENT}, got {spec.file_size}",
    )
    min_size = minimum_file_size(spec)
    require(
        spec.file_size >= min_size,
        f"file_size {spec.file_size} below minimum {min_size} for this spec",
    )

    n = spec.n_sections
    headers_size = _headers_size(n)
    payload_total = spec.file_size - headers_size

    # Compute the import blob assuming it starts at the last section's RVA;
    # the RVA depends only on section *virtual* sizes, which depend on raw
    # sizes, so lay out raw sizes first with a placeholder, then recompute.
    probe_blob, _ = _import_blob(spec, 0)
    import_raw = _align(max(len(probe_blob), 1), FILE_ALIGNMENT)

    if n == 1:
        raw_sizes = [payload_total]
    else:
        share = (payload_total - import_raw) // (n - 1) // FILE_ALIGNMENT * FILE_ALIGNMENT
        share = max(share, FILE_ALIGNMENT)
        raw_sizes = [share] * (n - 1)
        raw_sizes.append(payload_total - share * (n - 1))
    require(raw_sizes[-1] >= import_raw, "last section cannot hold the import table")

    # Virtual layout: sections at consecutive section-alignment boundaries.
    virtual_addrs: list[int] = []
    cursor = SECTION_ALIGNMENT
    for raw in raw_sizes:
        virtual_addrs.append(cursor)
        cursor += _align(max(raw, 1), SECTION_ALIGNMENT)
    size_of_image = cursor

    import_rva = virtual_addrs[-1]
    blob, _desc_size = _import_blob(spec, import_rva)
    import_dir_size = (spec.n_dlls + 1) * 20

    image = bytearray(spec.file_size)

    # --- DOS header + stub ---------------------------------------------
    image[0:2] = b"MZ"
    struct.pack_into("<I", image, 0x3C, _PE_OFFSET)
    stub = _DOS_STUB_TEXT[: _PE_OFFSET - _DOS_HEADER_SIZE]
    image[_DOS_HEADER_SIZE : _DOS_HEADER_SIZE + len(stub)] = stub

    # --- PE signature + COFF header -------------------------------------
    image[_PE_OFFSET : _PE_OFFSET + 4] = b"PE\x00\x00"
    timestamp = stable_hash64(repr(spec), salt="pe-timestamp") & 0x7FFF_FFFF
    characteristics = 0x0102  # EXECUTABLE_IMAGE | 32BIT_MACHINE
    struct.pack_into(
        "<HHIIIHH",
        image,
        _PE_OFFSET + 4,
        spec.machine_type,
        n,
        timestamp,
        0,  # PointerToSymbolTable
        0,  # NumberOfSymbols
        _OPTIONAL_HEADER_SIZE,
        characteristics,
    )

    # --- Optional header -------------------------------------------------
    opt = _PE_OFFSET + 4 + _COFF_SIZE
    size_of_code = sum(
        raw for raw, sec in zip(raw_sizes, spec.sections) if sec.characteristics & 0x20
    )
    size_of_init = sum(
        raw for raw, sec in zip(raw_sizes, spec.sections) if sec.characteristics & 0x40
    )
    struct.pack_into(
        "<HBBIIIIII",
        image,
        opt,
        0x10B,  # PE32 magic
        spec.linker_major,
        spec.linker_minor,
        size_of_code,
        size_of_init,
        0,  # SizeOfUninitializedData
        virtual_addrs[0],  # AddressOfEntryPoint
        virtual_addrs[0],  # BaseOfCode
        virtual_addrs[-1],  # BaseOfData
    )
    struct.pack_into(
        "<IIIHHHHHHIIIIHHIIIIII",
        image,
        opt + 28,
        _IMAGE_BASE,
        SECTION_ALIGNMENT,
        FILE_ALIGNMENT,
        spec.os_major,
        spec.os_minor,
        0,  # MajorImageVersion
        0,  # MinorImageVersion
        4,  # MajorSubsystemVersion
        0,  # MinorSubsystemVersion
        0,  # Win32VersionValue
        size_of_image,
        headers_size,
        0,  # CheckSum
        spec.subsystem,
        0,  # DllCharacteristics
        0x0010_0000,  # SizeOfStackReserve
        0x1000,  # SizeOfStackCommit
        0x0010_0000,  # SizeOfHeapReserve
        0x1000,  # SizeOfHeapCommit
        0,  # LoaderFlags
        16,  # NumberOfRvaAndSizes
    )
    # Data directories: only the import directory (index 1) is populated.
    data_dir = opt + 96
    struct.pack_into("<II", image, data_dir + 1 * 8, import_rva, import_dir_size)

    # --- Section table ----------------------------------------------------
    sec_table = opt + _OPTIONAL_HEADER_SIZE
    raw_ptr = headers_size
    raw_ptrs: list[int] = []
    for i, (sec, raw, vaddr) in enumerate(zip(spec.sections, raw_sizes, virtual_addrs)):
        entry = sec_table + i * _SECTION_HEADER_SIZE
        name_bytes = sec.name.encode("latin-1")[:8]
        image[entry : entry + len(name_bytes)] = name_bytes
        struct.pack_into(
            "<IIIIIIHHI",
            image,
            entry + 8,
            raw,  # VirtualSize (== raw size in our layout)
            vaddr,
            raw,  # SizeOfRawData
            raw_ptr,
            0,  # PointerToRelocations
            0,  # PointerToLinenumbers
            0,  # NumberOfRelocations
            0,  # NumberOfLinenumbers
            sec.characteristics,
        )
        raw_ptrs.append(raw_ptr)
        raw_ptr += raw

    # --- Section payload regions (import blob placed, fills pending) ------
    regions: list[tuple[int, int]] = []
    for i, (raw, ptr) in enumerate(zip(raw_sizes, raw_ptrs)):
        if i == n - 1:
            image[ptr : ptr + len(blob)] = blob
            fill_start, fill_len = ptr + len(blob), raw - len(blob)
        else:
            fill_start, fill_len = ptr, raw
        if fill_len > 0:
            regions.append((fill_start, fill_len))

    return bytes(image), tuple(regions)


#: Whether numpy exposes the C ``init_by_array`` seeding shortcut used
#: by the fast path below (private but stable across numpy 1.17+).
_HAVE_LEGACY_SEEDING = hasattr(np.random.MT19937, "_legacy_seeding")


def _seed_content_stream(generator: np.random.MT19937, content_seed: int) -> None:
    """Position ``generator`` at the start of ``content_seed``'s content stream.

    ``random.Random`` and numpy's ``MT19937`` are the same generator,
    and both seed multi-word integers through ``init_by_array`` over the
    int's little-endian 32-bit limbs — so seeding numpy with the same
    key yields the exact word sequence ``spawn_rng(content_seed,
    "pe-content")`` would produce, while the bulk draws run at C speed
    instead of through ``randbytes``'s big-integer path.  Seeds below
    2**32 (one-word keys, which numpy seeds differently) and numpy
    builds without the seeding shortcut fall back to transplanting the
    stdlib-seeded 624-word state; all paths are byte-identical.
    """
    seed = derive_seed(content_seed, "pe-content")
    if _HAVE_LEGACY_SEEDING and seed >> 32:
        generator._legacy_seeding(np.array([seed & 0xFFFFFFFF, seed >> 32], dtype=np.uint32))
        return
    state = random.Random(seed).getstate()[1]
    generator.state = {
        "bit_generator": "MT19937",
        "state": {
            "key": np.fromiter(state, np.uint32, count=625)[:624],
            "pos": state[624],
        },
    }


def _fill_bytes(generator: np.random.MT19937, n: int) -> bytes:
    """The next ``n`` bytes of the content stream.

    Byte-identical to ``random.Random.randbytes(n)`` on the same MT
    state: ``randbytes`` is ``getrandbits(8 * n)`` serialized
    little-endian, i.e. ``ceil(n / 4)`` raw 32-bit words in draw order,
    with the final partial word's *high* bits shifted down (that is how
    ``getrandbits`` truncates its top word).
    """
    m = (n + 3) >> 2
    data = generator.random_raw(m).astype("<u4").tobytes()
    partial = n & 3
    if not partial:
        return data
    tail = int.from_bytes(data[-4:], "little") >> (32 - (partial << 3))
    return data[: (m - 1) << 2] + tail.to_bytes(partial, "little")


class PEBuilder:
    """Builds PE images, one at a time, for a caller that builds many.

    Everything up to the section payload fill is a pure function of the
    spec, so the builder keeps the layout of the last spec it built:
    consecutive builds of one spec (the polymorphic instances of a
    variant) lay it out once.  It also owns the MT19937 bit generator
    the fills are drawn from.  One builder must not build on two threads
    at once; separate builders share no state.
    """

    __slots__ = ("spec", "image", "regions", "generator")

    def __init__(self) -> None:
        self.spec: PESpec | None = None
        self.image = b""
        self.regions: tuple[tuple[int, int], ...] = ()
        self.generator = np.random.MT19937(0)


def build_pe(spec: PESpec, content_seed: int, builder: PEBuilder | None = None) -> bytes:
    """Emit a PE image for ``spec`` with payload drawn from ``content_seed``.

    The image is exactly ``spec.file_size`` bytes long (the spec's file
    size must be a multiple of the 512-byte file alignment, as real
    linker output is) and parses back to the spec's header features via
    :func:`repro.peformat.parse_pe`.  The payload regions are filled, in
    layout order, from one ``spawn_rng(content_seed, "pe-content")``
    stream.  A caller that builds many images passes one
    :class:`PEBuilder` and groups its builds by spec; without one the
    call makes its own, so one-off callers on any thread need nothing
    else.
    """
    if builder is None:
        builder = PEBuilder()
    if builder.spec != spec:
        builder.spec, builder.image = None, b""  # free the old layout first
        builder.image, builder.regions = _layout(spec)
        builder.spec = spec
    image = bytearray(builder.image)
    _seed_content_stream(builder.generator, content_seed)
    for fill_start, fill_len in builder.regions:
        image[fill_start : fill_start + fill_len] = _fill_bytes(builder.generator, fill_len)
    return bytes(image)
