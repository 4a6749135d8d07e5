"""Hypothesis property tests: PE build/parse round-trip."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.peformat.builder import build_pe, minimum_file_size
from repro.peformat.magic import magic_type
from repro.peformat.parser import parse_pe
from repro.peformat.structures import (
    FILE_ALIGNMENT,
    MACHINE_AMD64,
    MACHINE_I386,
    PEFormatError,
    PESpec,
    SectionSpec,
    SCN_CODE,
    SCN_INITIALIZED_DATA,
    SCN_MEM_READ,
)

section_names = st.sampled_from(
    [".text", ".rdata", ".data", ".rsrc", "UPX0", "UPX1", "CODE", ".x"]
)
symbol_names = st.sampled_from(
    ["GetProcAddress", "LoadLibraryA", "CreateFileA", "WinExec", "socket", "Sym_1"]
)
dll_names = st.sampled_from(
    ["KERNEL32.dll", "WS2_32.dll", "ADVAPI32.dll", "WININET.dll", "USER32.dll"]
)


@st.composite
def pe_specs(draw):
    n_sections = draw(st.integers(min_value=1, max_value=6))
    names = draw(
        st.lists(section_names, min_size=n_sections, max_size=n_sections)
    )
    sections = tuple(
        SectionSpec(
            name,
            draw(
                st.sampled_from(
                    [SCN_CODE | SCN_MEM_READ, SCN_INITIALIZED_DATA | SCN_MEM_READ]
                )
            ),
        )
        for name in names
    )
    n_dlls = draw(st.integers(min_value=0, max_value=3))
    imports = {}
    dlls = draw(st.lists(dll_names, min_size=n_dlls, max_size=n_dlls, unique=True))
    for dll in dlls:
        imports[dll] = tuple(
            draw(st.lists(symbol_names, min_size=0, max_size=5, unique=True))
        )
    spec = PESpec(
        machine_type=draw(st.sampled_from([MACHINE_I386, MACHINE_AMD64])),
        sections=sections,
        imports=imports,
        os_version=draw(st.integers(min_value=0, max_value=99)),
        linker_version=draw(st.integers(min_value=0, max_value=99)),
        file_size=FILE_ALIGNMENT,  # placeholder, fixed below
    )
    floor = minimum_file_size(spec)
    extra = draw(st.integers(min_value=0, max_value=60))
    return spec.with_size(floor + extra * FILE_ALIGNMENT)


class TestRoundTrip:
    @given(pe_specs(), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=60, deadline=None)
    def test_build_parse_recovers_spec(self, spec, seed):
        image = build_pe(spec, seed)
        assert len(image) == spec.file_size
        info = parse_pe(image)
        assert info.machine_type == spec.machine_type
        assert info.n_sections == spec.n_sections
        assert info.os_version == spec.os_version
        assert info.linker_version == spec.linker_version
        assert info.section_names == tuple(s.name.ljust(8, "\x00") for s in spec.sections)
        assert info.imports == {dll: tuple(syms) for dll, syms in spec.imports.items()}
        assert info.file_size == spec.file_size

    @given(pe_specs(), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=40, deadline=None)
    def test_content_mutation_preserves_headers(self, spec, seed):
        info_a = parse_pe(build_pe(spec, seed))
        info_b = parse_pe(build_pe(spec, seed + 1))
        assert info_a == info_b

    @given(pe_specs(), st.integers(min_value=0, max_value=100), st.data())
    @settings(max_examples=40, deadline=None)
    def test_truncation_never_crashes(self, spec, seed, data):
        image = build_pe(spec, seed)
        cut = data.draw(st.integers(min_value=0, max_value=len(image) - 1))
        try:
            parse_pe(image[:cut])
        except PEFormatError:
            pass  # expected for most cuts; anything else would fail the test

    @given(pe_specs(), st.integers(min_value=0, max_value=100))
    @settings(max_examples=40, deadline=None)
    def test_magic_recognizes_built_images(self, spec, seed):
        assert magic_type(build_pe(spec, seed)).startswith("MS-DOS executable PE")


class TestParserRobustness:
    @given(st.binary(max_size=4096))
    @settings(max_examples=100)
    def test_arbitrary_bytes_never_crash(self, data):
        try:
            parse_pe(data)
        except PEFormatError:
            pass

    @given(st.binary(max_size=2048))
    @settings(max_examples=100)
    def test_magic_total_on_arbitrary_bytes(self, data):
        assert isinstance(magic_type(data), str)
