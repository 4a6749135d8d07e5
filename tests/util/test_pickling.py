"""The scoped GC pause and the field-tuple pickle state of the records."""

import dataclasses
import gc
import importlib
import inspect
import pickle
import pkgutil

import pytest

import repro
from repro.egpm.events import (
    AttackEvent,
    ExploitObservable,
    GroundTruth,
    InteractionType,
    MalwareObservable,
    PayloadObservable,
)
from repro.honeypot.deployment import StagedObservation
from repro.malware.landscape import AttackAttempt
from repro.net.address import IPv4Address
from repro.peformat.structures import PEInfo, PESpec
from repro.util.pickling import field_tuple_state, gc_paused


@pytest.fixture(autouse=True)
def _gc_enabled():
    """Every test starts, and must end, with the collector on."""
    assert gc.isenabled()
    yield
    assert gc.isenabled()


def _generation_of(obj: object) -> int | None:
    """The collector generation tracking ``obj`` (``None`` if untracked)."""
    for generation in range(3):
        if any(tracked is obj for tracked in gc.get_objects(generation=generation)):
            return generation
    return None


@pytest.fixture
def freezes(monkeypatch):
    """One ``True`` per ``gc.freeze()`` call (the call still runs)."""
    seen: list[bool] = []
    real = gc.freeze

    def spy():
        seen.append(True)
        real()

    monkeypatch.setattr(gc, "freeze", spy)
    return seen


class TestGCPaused:
    def test_disables_inside_and_restores_on_exit(self):
        with gc_paused():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_leaves_a_caller_disabled_gc_disabled(self):
        gc.disable()
        try:
            with gc_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_restores_after_an_exception(self):
        with pytest.raises(RuntimeError, match="boom"):
            with gc_paused():
                raise RuntimeError("boom")
        assert gc.isenabled()

    def test_nested_use_is_a_no_op(self):
        with gc_paused():
            with gc_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_outermost_pause_promotes_its_survivors(self):
        # Survivors skip the young generations: no young collection
        # walks a freshly loaded run again.
        with gc_paused():
            survivor = [[] for _ in range(100)]
            assert _generation_of(survivor) == 0
        assert _generation_of(survivor) == 2

    def test_nested_pause_does_not_promote(self, freezes):
        with gc_paused():
            with gc_paused():
                survivor = []
            assert freezes == []
            assert _generation_of(survivor) == 0
        assert freezes == [True]

    def test_caller_disabled_pause_does_not_promote(self, freezes):
        gc.disable()
        try:
            with gc_paused():
                survivor = []
            assert _generation_of(survivor) == 0
        finally:
            gc.enable()
        assert freezes == []

    def test_raising_body_does_not_promote(self, freezes):
        with pytest.raises(RuntimeError, match="boom"):
            with gc_paused():
                raise RuntimeError("boom")
        assert freezes == []

    def test_decorated_function_pauses_every_call(self):
        seen = []

        @gc_paused()
        def probe(fail: bool) -> None:
            seen.append(gc.isenabled())
            if fail:
                raise ValueError("fail")

        probe(False)
        with pytest.raises(ValueError):
            probe(True)
        probe(False)
        assert seen == [False, False, False]


PE = PEInfo(
    machine_type=0x14C,
    n_sections=3,
    os_version=(4, 0),
    linker_version=(6, 0),
    subsystem=2,
    section_names=(".text", ".rdata", ".data"),
    imported_dlls=("kernel32.dll",),
    imports={"kernel32.dll": ("LoadLibraryA", "GetProcAddress")},
    file_size=59904,
)
EXPLOIT = ExploitObservable(fsm_path_id=17, dst_port=445)
PAYLOAD = PayloadObservable("ftp", InteractionType.PULL, "a.exe", 21)
MALWARE = MalwareObservable("0" * 32, 59904, "PE32 executable", PE)
TRUTH = GroundTruth("allaple", "allaple.b", "lsass", "ftp-pull")
EVENT = AttackEvent(
    event_id=3,
    timestamp=1_200_000,
    source=IPv4Address(0x0A000001),
    sensor=IPv4Address(0xC0A80001),
    exploit=EXPLOIT,
    payload=PAYLOAD,
    malware=MALWARE,
    ground_truth=TRUTH,
)
#: One instance of every frozen slotted record, nested ones included.
RECORDS = [
    EXPLOIT,
    PAYLOAD,
    MALWARE,
    TRUTH,
    EVENT,
    AttackEvent(3, 0, IPv4Address(1), IPv4Address(2), EXPLOIT),
    AttackAttempt(
        timestamp=5,
        source=IPv4Address(1),
        sensor=IPv4Address(2),
        conversation=(("GET", "/"), ("200",)),
        payload=None,
        filename="a.exe",
        pe_spec=PESpec(),
        content_seed=99,
        behavior=None,
        truth=TRUTH,
        variant_key="allaple.b",
        dst_port=445,
    ),
    StagedObservation(
        timestamp=5,
        source=IPv4Address(1),
        sensor=IPv4Address(2),
        conversation=(("GET", "/"),),
        dst_port=445,
        truth=None,
        behavior="handle",
        payload=PAYLOAD,
        malware=None,
    ),
]
RECORD_IDS = [type(record).__name__ for record in RECORDS]
RECORD_CLASSES = sorted({type(record) for record in RECORDS}, key=lambda c: c.__name__)


def _hash(record):
    """``hash(record)``, or the exception type for an unhashable one."""
    try:
        return hash(record)
    except TypeError as exc:
        return type(exc)


def _stdlib_state(record) -> list:
    """The state the stdlib's slotted-frozen hook writes (a list)."""
    return dataclasses._dataclass_getstate(record)


def _frozen_slotted_dataclasses() -> list[type]:
    found = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if (
                inspect.isclass(obj)
                and obj.__module__ == module.__name__
                and dataclasses.is_dataclass(obj)
                and obj.__dataclass_params__.frozen
                and "__slots__" in obj.__dict__
            ):
                found.append(obj)
    return found


class TestFieldTupleState:
    def test_every_frozen_slotted_dataclass_uses_it(self):
        classes = _frozen_slotted_dataclasses()
        assert set(RECORD_CLASSES) <= set(classes)
        for cls in classes:
            assert cls.__getstate__ is not dataclasses._dataclass_getstate, cls
            assert cls.__setstate__ is not dataclasses._dataclass_setstate, cls

    @pytest.mark.parametrize("record", RECORDS, ids=RECORD_IDS)
    def test_state_is_the_field_values_in_order(self, record):
        state = record.__getstate__()
        assert isinstance(state, tuple)
        assert list(state) == _stdlib_state(record)

    @pytest.mark.parametrize("record", RECORDS, ids=RECORD_IDS)
    def test_round_trip_preserves_equality_and_hash(self, record):
        loaded = pickle.loads(pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL))
        assert loaded == record
        assert _hash(loaded) == _hash(record)
        assert type(loaded) is type(record)

    @pytest.mark.parametrize("record", RECORDS, ids=RECORD_IDS)
    def test_stdlib_written_pickle_loads_under_the_new_hooks(self, record, monkeypatch):
        for cls in RECORD_CLASSES:
            monkeypatch.setattr(cls, "__getstate__", dataclasses._dataclass_getstate)
        blob = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
        monkeypatch.undo()
        loaded = pickle.loads(blob)
        assert loaded == record
        assert _hash(loaded) == _hash(record)

    @pytest.mark.parametrize("record", RECORDS, ids=RECORD_IDS)
    def test_new_pickle_loads_under_the_stdlib_hooks(self, record, monkeypatch):
        blob = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
        for cls in RECORD_CLASSES:
            monkeypatch.setattr(cls, "__setstate__", dataclasses._dataclass_setstate)
        loaded = pickle.loads(blob)
        assert loaded == record
        assert _hash(loaded) == _hash(record)

    @pytest.mark.parametrize("state", [(17,), (17, 445, 0)], ids=["short", "long"])
    def test_wrong_arity_fails_the_unpickle(self, state, monkeypatch):
        monkeypatch.setattr(ExploitObservable, "__getstate__", lambda self: state)
        blob = pickle.dumps(EXPLOIT, protocol=pickle.HIGHEST_PROTOCOL)
        monkeypatch.undo()
        with pytest.raises(TypeError, match="ExploitObservable pickle state has"):
            pickle.loads(blob)

    def test_single_field_record(self):
        @field_tuple_state
        @dataclasses.dataclass(frozen=True, slots=True)
        class One:
            value: int

        record = One(4)
        assert record.__getstate__() == (4,)
        blank = One.__new__(One)
        blank.__setstate__([4])
        assert blank == record
