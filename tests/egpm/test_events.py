"""Tests for EGPM event records and their serialization."""

import pytest

from repro.egpm.events import (
    AttackEvent,
    ExploitObservable,
    GroundTruth,
    InteractionType,
    MalwareObservable,
    PayloadObservable,
    SampleRecord,
    event_from_dict,
    event_to_dict,
)
from repro.net.address import IPv4Address
from repro.peformat.builder import build_pe
from repro.peformat.parser import parse_pe
from repro.peformat.structures import PESpec
from repro.util.hashing import md5_hex
from repro.util.validation import ValidationError


def make_event(event_id=0, *, with_malware=True, with_payload=True) -> AttackEvent:
    payload = None
    malware = None
    if with_payload:
        payload = PayloadObservable(
            protocol="ftp",
            interaction=InteractionType.PULL,
            filename="x.exe",
            port=21,
        )
    if with_malware:
        image = build_pe(PESpec(), 5)
        malware = MalwareObservable(
            md5=md5_hex(image),
            size=len(image),
            magic="MS-DOS executable PE for MS Windows (GUI) Intel 80386 32-bit",
            pe=parse_pe(image),
        )
    return AttackEvent(
        event_id=event_id,
        timestamp=1000,
        source=IPv4Address(0x01020304),
        sensor=IPv4Address(0x0A0B0C0D),
        exploit=ExploitObservable(fsm_path_id=3, dst_port=445),
        payload=payload,
        malware=malware,
        ground_truth=GroundTruth("fam", "v001", "exp", "pay"),
    )


class TestObservables:
    def test_exploit_rejects_bad_port(self):
        with pytest.raises(ValidationError):
            ExploitObservable(fsm_path_id=1, dst_port=0)

    def test_exploit_rejects_negative_path(self):
        with pytest.raises(ValidationError):
            ExploitObservable(fsm_path_id=-2, dst_port=445)

    def test_payload_rejects_empty_protocol(self):
        with pytest.raises(ValidationError):
            PayloadObservable(protocol="", interaction=InteractionType.PUSH)

    def test_payload_optional_fields(self):
        obs = PayloadObservable(protocol="blink", interaction=InteractionType.PULL)
        assert obs.filename is None and obs.port is None

    def test_malware_rejects_bad_md5(self):
        with pytest.raises(ValidationError):
            MalwareObservable(md5="short", size=10, magic="data", pe=None)

    def test_interaction_values(self):
        assert {i.value for i in InteractionType} == {"push", "pull", "central"}


class TestSampleRecord:
    def test_record_event_updates_span(self):
        event = make_event()
        record = SampleRecord(
            md5=event.malware.md5,
            observable=event.malware,
            first_seen=100,
            last_seen=100,
        )
        record.record_event(50)
        record.record_event(400)
        assert (record.first_seen, record.last_seen, record.n_events) == (50, 400, 3)


class TestSerialization:
    def test_roundtrip_full(self):
        event = make_event()
        assert event_from_dict(event_to_dict(event)) == event

    def test_roundtrip_no_payload(self):
        event = make_event(with_payload=False, with_malware=False)
        assert event_from_dict(event_to_dict(event)) == event

    def test_roundtrip_corrupted_sample(self):
        base = make_event()
        corrupted = MalwareObservable(
            md5=base.malware.md5, size=17, magic="data", pe=None, corrupted=True
        )
        event = AttackEvent(
            event_id=0,
            timestamp=5,
            source=base.source,
            sensor=base.sensor,
            exploit=base.exploit,
            malware=corrupted,
        )
        back = event_from_dict(event_to_dict(event))
        assert back.malware.corrupted and back.malware.pe is None

    def test_dict_is_json_safe(self):
        import json

        json.dumps(event_to_dict(make_event()))

    def test_source_preserved_as_address(self):
        back = event_from_dict(event_to_dict(make_event()))
        assert isinstance(back.source, IPv4Address)
        assert back.source.dotted == "1.2.3.4"
