"""Tests for the PE parser (the pefile stand-in)."""

import pytest

from repro.peformat.builder import build_pe
from repro.peformat.parser import parse_pe
from repro.peformat.structures import (
    MACHINE_AMD64,
    PEFormatError,
    PESpec,
    SectionSpec,
)


@pytest.fixture(scope="module")
def default_image() -> bytes:
    return build_pe(PESpec(), content_seed=99)


class TestParseRoundTrip:
    def test_header_features(self, default_image):
        info = parse_pe(default_image)
        spec = PESpec()
        assert info.machine_type == spec.machine_type
        assert info.n_sections == spec.n_sections
        assert info.os_version == spec.os_version
        assert info.linker_version == spec.linker_version
        assert info.subsystem == spec.subsystem
        assert info.file_size == spec.file_size

    def test_section_names_nul_padded(self, default_image):
        info = parse_pe(default_image)
        assert info.section_names == (
            ".text\x00\x00\x00",
            ".rdata\x00\x00",
            ".data\x00\x00\x00",
        )

    def test_imports_recovered(self, default_image):
        info = parse_pe(default_image)
        assert info.imports == {
            "KERNEL32.dll": ("GetProcAddress", "LoadLibraryA")
        }
        assert info.kernel32_symbols == ("GetProcAddress", "LoadLibraryA")

    def test_multi_dll_imports(self):
        spec = PESpec(
            imports={
                "KERNEL32.dll": ("GetProcAddress",),
                "WS2_32.dll": ("socket", "connect"),
                "ADVAPI32.dll": ("RegOpenKeyA",),
            }
        )
        info = parse_pe(build_pe(spec, 1))
        assert info.n_dlls == 3
        assert info.imports["WS2_32.dll"] == ("socket", "connect")

    def test_headers_invariant_under_polymorphism(self):
        spec = PESpec()
        infos = [parse_pe(build_pe(spec, seed)) for seed in range(5)]
        assert all(info == infos[0] for info in infos)


class TestParseErrors:
    def test_empty(self):
        with pytest.raises(PEFormatError, match="MZ"):
            parse_pe(b"")

    def test_not_mz(self):
        with pytest.raises(PEFormatError, match="MZ"):
            parse_pe(b"\x7fELF" + b"\x00" * 100)

    def test_mz_without_pe(self):
        data = bytearray(200)
        data[0:2] = b"MZ"
        with pytest.raises(PEFormatError):
            parse_pe(bytes(data))

    @pytest.mark.parametrize("cut", [10, 0x50, 0x90, 0x200, 2000])
    def test_truncations_raise(self, default_image, cut):
        with pytest.raises(PEFormatError):
            parse_pe(default_image[:cut])

    def test_every_truncation_point_is_handled(self, default_image):
        # Any cut strictly inside the image must raise, never crash with
        # an unrelated exception (this is exactly what Nepenthes
        # truncation produces in the pipeline).
        for cut in range(0, len(default_image), 1499):
            if cut == len(default_image):
                continue
            with pytest.raises(PEFormatError):
                parse_pe(default_image[:cut])

    def test_garbage_after_mz(self):
        data = b"MZ" + bytes(range(256)) * 4
        with pytest.raises(PEFormatError):
            parse_pe(data)


class TestParseVariants:
    def test_amd64_machine(self):
        spec = PESpec(machine_type=MACHINE_AMD64)
        assert parse_pe(build_pe(spec, 1)).machine_type == MACHINE_AMD64

    def test_custom_sections(self):
        spec = PESpec(
            sections=(SectionSpec("UPX0"), SectionSpec("UPX1"), SectionSpec(".rsrc")),
        )
        info = parse_pe(build_pe(spec, 1))
        assert info.section_names[0].startswith("UPX0")

    def test_size_feature_tracks_spec(self):
        for size in (59_904, 61_440, 65_536):
            info = parse_pe(build_pe(PESpec().with_size(size), 1))
            assert info.file_size == size
