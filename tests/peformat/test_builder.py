"""Tests for the PE builder."""

import random
import sys
import threading

import pytest

from repro.peformat import builder
from repro.peformat.builder import PEBuilder, build_pe, minimum_file_size
from repro.peformat.structures import (
    FILE_ALIGNMENT,
    PESpec,
    SectionSpec,
)
from repro.util.rng import derive_seed
from repro.util.validation import ValidationError


class TestMinimumFileSize:
    def test_positive_and_aligned_floor(self):
        floor = minimum_file_size(PESpec())
        assert floor > 0
        assert floor % FILE_ALIGNMENT == 0

    def test_grows_with_sections(self):
        one = PESpec(sections=(SectionSpec(".text"),))
        four = PESpec(
            sections=tuple(SectionSpec(f".s{i}") for i in range(4)),
        )
        assert minimum_file_size(four) > minimum_file_size(one)

    def test_grows_with_imports(self):
        small = PESpec()
        big = PESpec(
            imports={f"LIB{i}.dll": tuple(f"Sym{j}" for j in range(40)) for i in range(8)}
        )
        assert minimum_file_size(big) >= minimum_file_size(small)


class TestBuildPe:
    def test_exact_size(self):
        spec = PESpec()
        assert len(build_pe(spec, 1)) == spec.file_size

    def test_deterministic(self):
        assert build_pe(PESpec(), 7) == build_pe(PESpec(), 7)

    def test_seed_changes_content(self):
        assert build_pe(PESpec(), 1) != build_pe(PESpec(), 2)

    def test_mz_and_pe_signatures(self):
        image = build_pe(PESpec(), 1)
        assert image[:2] == b"MZ"
        assert image[0x80:0x84] == b"PE\x00\x00"

    def test_rejects_unaligned_size(self):
        with pytest.raises(ValidationError, match="multiple"):
            build_pe(PESpec(file_size=59_905), 1)

    def test_rejects_too_small(self):
        spec = PESpec(file_size=FILE_ALIGNMENT)
        with pytest.raises(ValidationError, match="below minimum"):
            build_pe(spec, 1)

    def test_minimum_size_buildable(self):
        spec = PESpec()
        tight = spec.with_size(minimum_file_size(spec))
        assert len(build_pe(tight, 1)) == tight.file_size

    def test_single_section_spec(self):
        spec = PESpec(sections=(SectionSpec(".text"),), file_size=8192)
        assert len(build_pe(spec, 3)) == 8192

    def test_many_sections(self):
        spec = PESpec(
            sections=tuple(SectionSpec(f"s{i}") for i in range(8)),
            file_size=65_536,
        )
        assert len(build_pe(spec, 3)) == 65_536

    def test_header_bytes_invariant_under_seed(self):
        # Allaple's property: polymorphic mutation never touches headers.
        a = build_pe(PESpec(), 1)
        b = build_pe(PESpec(), 2)
        headers_end = 0x200
        assert a[:headers_end] == b[:headers_end]

    def test_different_specs_different_headers(self):
        a = build_pe(PESpec(), 1)
        b = build_pe(PESpec(linker_version=80).with_size(59_904), 1)
        assert a[:0x200] != b[:0x200]


#: Specs covering one, three and eight sections, the tightest size for
#: the default spec and a two-DLL import table.
ORACLE_SPECS = [
    PESpec(),
    PESpec(sections=(SectionSpec(".text"),), file_size=8192),
    PESpec(sections=tuple(SectionSpec(f"s{i}") for i in range(8)), file_size=65_536),
    PESpec().with_size(minimum_file_size(PESpec())),
    PESpec(imports={"KERNEL32.dll": ("GetProcAddress",), "WS2_32.dll": ("send",)}),
]
ORACLE_SEEDS = [0, 1, 7, 2**40 + 3, derive_seed(5, "content")]


def _stdlib_image(spec: PESpec, content_seed: int) -> bytes:
    """The image the numpy fill must reproduce: the spec's template with
    each fill region replaced, in order, by the stdlib content stream."""
    template, regions = builder._layout(spec)
    stream = random.Random(derive_seed(content_seed, "pe-content"))
    image = bytearray(template)
    for start, length in regions:
        assert image[start : start + length] == bytes(length)
        image[start : start + length] = stream.randbytes(length)
    return bytes(image)


class TestContentStreamOracle:
    @pytest.mark.parametrize("legacy_seeding", [True, False], ids=["init_by_array", "transplant"])
    @pytest.mark.parametrize("spec", ORACLE_SPECS, ids=range(len(ORACLE_SPECS)))
    def test_numpy_fill_equals_stdlib_stream(self, spec, legacy_seeding, monkeypatch):
        if legacy_seeding and not builder._HAVE_LEGACY_SEEDING:
            pytest.skip("numpy lacks the init_by_array seeding shortcut")
        monkeypatch.setattr(builder, "_HAVE_LEGACY_SEEDING", legacy_seeding)
        shared = PEBuilder()
        for seed in ORACLE_SEEDS:
            expected = _stdlib_image(spec, seed)
            assert build_pe(spec, seed) == expected
            assert build_pe(spec, seed, shared) == expected

    def test_one_builder_across_specs_equals_fresh_builds(self):
        shared = PEBuilder()
        for spec in ORACLE_SPECS + ORACLE_SPECS[::-1]:
            for seed in ORACLE_SEEDS[:2]:
                assert build_pe(spec, seed, shared) == build_pe(spec, seed)

    def test_oracle_specs_include_a_partial_word_region(self):
        # A region length that is not a multiple of four exercises the
        # partial top word of ``randbytes``.
        lengths = {length % 4 for spec in ORACLE_SPECS for _, length in builder._layout(spec)[1]}
        assert lengths - {0}

    def test_threads_building_interleaved_images_get_the_serial_bytes(self):
        jobs = [(spec, seed) for spec in ORACLE_SPECS[:3] for seed in ORACLE_SEEDS]
        serial = [build_pe(spec, seed) for spec, seed in jobs]
        n_threads = 4
        results: list[list[bytes]] = [[] for _ in range(n_threads)]
        start = threading.Barrier(n_threads)

        def work(out: list[bytes]) -> None:
            start.wait(timeout=10)
            for _ in range(3):
                out.extend(build_pe(spec, seed) for spec, seed in jobs)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(out,)) for out in results]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(out == serial * 3 for out in results)
