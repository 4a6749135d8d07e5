"""Hypothesis property tests: serialization and codec round-trips."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.egpm.dataset import SGNetDataset
from repro.egpm.events import (
    AttackEvent,
    ExploitObservable,
    GroundTruth,
    InteractionType,
    MalwareObservable,
    PayloadObservable,
    event_from_dict,
    event_to_dict,
)
from repro.net.address import IPv4Address, ip_from_string, ip_to_string
from repro.util.stats import burstiness, gini, normalized_entropy

addresses = st.integers(min_value=0, max_value=(1 << 32) - 1)


class TestIpCodec:
    @given(addresses)
    @settings(max_examples=200)
    def test_roundtrip(self, value):
        assert int(ip_from_string(ip_to_string(value))) == value

    @given(addresses)
    def test_prefix_consistency(self, value):
        addr = IPv4Address(value)
        assert addr.slash24 >> 16 == addr.slash8
        assert addr.slash16 >> 8 == addr.slash8


md5s = st.text(alphabet="0123456789abcdef", min_size=32, max_size=32)
ports = st.integers(min_value=1, max_value=65535)
protocols = st.sampled_from(["ftp", "http", "tftp", "creceive", "blink"])
interactions = st.sampled_from(list(InteractionType))


@st.composite
def events(draw, event_id=0):
    payload = None
    if draw(st.booleans()):
        payload = PayloadObservable(
            protocol=draw(protocols),
            interaction=draw(interactions),
            filename=draw(st.none() | st.text(min_size=1, max_size=12)),
            port=draw(st.none() | ports),
        )
    malware = None
    if draw(st.booleans()):
        malware = MalwareObservable(
            md5=draw(md5s),
            size=draw(st.integers(min_value=0, max_value=10**7)),
            magic=draw(st.sampled_from(["data", "MS-DOS executable"])),
            pe=None,
            corrupted=draw(st.booleans()),
        )
    truth = None
    if draw(st.booleans()):
        truth = GroundTruth(
            family=draw(st.text(min_size=1, max_size=8)),
            variant=draw(st.text(min_size=1, max_size=8)),
            exploit_name="e",
            payload_name="p",
        )
    return AttackEvent(
        event_id=event_id,
        timestamp=draw(st.integers(min_value=0, max_value=10**9)),
        source=IPv4Address(draw(addresses)),
        sensor=IPv4Address(draw(addresses)),
        exploit=ExploitObservable(
            fsm_path_id=draw(st.integers(min_value=0, max_value=10**4)),
            dst_port=draw(ports),
        ),
        payload=payload,
        malware=malware,
        ground_truth=truth,
    )


class TestEventCodec:
    @given(events())
    @settings(max_examples=150, deadline=None)
    def test_dict_roundtrip(self, event):
        assert event_from_dict(event_to_dict(event)) == event

    @given(st.lists(events(), max_size=10))
    @settings(max_examples=40)
    def test_jsonl_roundtrip(self, tmp_path_factory, event_list):
        renumbered = [
            AttackEvent(
                event_id=i,
                timestamp=e.timestamp,
                source=e.source,
                sensor=e.sensor,
                exploit=e.exploit,
                payload=e.payload,
                malware=e.malware,
                ground_truth=e.ground_truth,
            )
            for i, e in enumerate(event_list)
        ]
        dataset = SGNetDataset.from_events(renumbered)
        path = tmp_path_factory.mktemp("jsonl") / "events.jsonl"
        dataset.save_jsonl(path)
        loaded = SGNetDataset.load_jsonl(path)
        assert loaded.events == dataset.events


class TestStatsBounds:
    @given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=50))
    @settings(max_examples=100)
    def test_gini_bounds(self, values):
        assert 0.0 <= gini(values) <= 1.0

    @given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=50))
    @settings(max_examples=100)
    def test_normalized_entropy_bounds(self, counts):
        assert 0.0 <= normalized_entropy(counts) <= 1.0

    @given(
        st.lists(
            st.floats(min_value=0, max_value=10**6, allow_nan=False),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=100)
    def test_burstiness_bounds(self, gaps):
        assert -1.0 <= burstiness(gaps) <= 1.0
