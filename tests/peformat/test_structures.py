"""Tests for PE spec and info structures."""

import pytest

from repro.peformat.structures import (
    MACHINE_I386,
    PEInfo,
    PESpec,
    SectionSpec,
)
from repro.util.validation import ValidationError


class TestSectionSpec:
    def test_padded_name(self):
        assert SectionSpec(".text").padded_name == ".text\x00\x00\x00"

    def test_eight_char_name_not_padded(self):
        assert SectionSpec("ABCDEFGH").padded_name == "ABCDEFGH"

    def test_rejects_long_name(self):
        with pytest.raises(ValidationError):
            SectionSpec("way-too-long-name")


class TestPESpec:
    def test_defaults_match_paper_quote(self):
        # The default spec is the M-cluster 13 shape quoted in §4.2.
        spec = PESpec()
        assert spec.machine_type == 332
        assert spec.n_sections == 3
        assert spec.n_dlls == 1
        assert spec.os_version == 64
        assert spec.linker_version == 92
        assert spec.file_size == 59_904

    def test_linker_split(self):
        spec = PESpec(linker_version=92)
        assert (spec.linker_major, spec.linker_minor) == (9, 2)

    def test_os_split(self):
        spec = PESpec(os_version=64)
        assert (spec.os_major, spec.os_minor) == (6, 4)

    def test_with_size(self):
        assert PESpec().with_size(61_440).file_size == 61_440

    def test_with_size_preserves_rest(self):
        spec = PESpec().with_size(61_440)
        assert spec.linker_version == PESpec().linker_version

    def test_with_linker(self):
        assert PESpec().with_linker(80).linker_version == 80

    def test_with_sections_renames(self):
        spec = PESpec().with_sections(["AAA", "BBB", "CCC"])
        assert [s.name for s in spec.sections] == ["AAA", "BBB", "CCC"]

    def test_with_sections_arity_checked(self):
        with pytest.raises(ValidationError):
            PESpec().with_sections(["only-one"])

    def test_with_imports(self):
        spec = PESpec().with_imports({"USER32.dll": ["MessageBoxA"]})
        assert spec.n_dlls == 1
        assert spec.imports["USER32.dll"] == ("MessageBoxA",)

    def test_rejects_no_sections(self):
        with pytest.raises(ValidationError):
            PESpec(sections=())

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValidationError):
            PESpec(file_size=0)

    def test_equal_specs_hash_equally(self):
        imports = {"USER32.dll": ("MessageBoxA",)}
        a, b = PESpec(imports=dict(imports)), PESpec(imports=dict(imports))
        assert a == b and hash(a) == hash(b)
        assert hash(PESpec()) == hash(PESpec())
        assert len({a, b, PESpec()}) == 2
        # The import table still takes part in equality and in repr,
        # which seeds the built binary's timestamp.
        assert a != PESpec()
        assert "USER32.dll" in repr(a)


class TestPEInfo:
    def _info(self, imports):
        return PEInfo(
            machine_type=MACHINE_I386,
            n_sections=1,
            os_version=40,
            linker_version=60,
            subsystem=2,
            section_names=(".text\x00\x00\x00",),
            imported_dlls=tuple(imports.keys()),
            imports=imports,
            file_size=1024,
        )

    def test_kernel32_symbols_case_insensitive(self):
        info = self._info({"kernel32.DLL": ("CreateFileA",)})
        assert info.kernel32_symbols == ("CreateFileA",)

    def test_kernel32_symbols_absent(self):
        info = self._info({"USER32.dll": ("MessageBoxA",)})
        assert info.kernel32_symbols == ()

    def test_n_dlls(self):
        info = self._info({"A.dll": (), "B.dll": ()})
        assert info.n_dlls == 2

    def test_equal_infos_and_observables_hash_equally(self):
        from repro.egpm.events import MalwareObservable

        imports = {"KERNEL32.dll": ("GetProcAddress",)}
        a, b = self._info(dict(imports)), self._info(dict(imports))
        assert a == b and hash(a) == hash(b)
        # The import table still takes part in equality.
        assert a != self._info({"USER32.dll": ("MessageBoxA",)})
        md5 = "0" * 32
        obs_a = MalwareObservable(md5=md5, size=1024, magic="PE32", pe=a)
        obs_b = MalwareObservable(md5=md5, size=1024, magic="PE32", pe=b)
        assert obs_a == obs_b
        assert hash(obs_a) == hash(obs_b)
        assert len({obs_a, obs_b}) == 1
