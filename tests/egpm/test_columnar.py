"""Tests for the columnar event store and its row-wise round-trip."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.features import Dimension, FeatureSet, default_feature_sets, pi_features
from repro.egpm.columnar import ColumnarBuilder, events_to_columnar
from repro.egpm.events import (
    AttackEvent,
    ExploitObservable,
    InteractionType,
    MalwareObservable,
    PayloadObservable,
)
from repro.net.address import IPv4Address
from repro.util.validation import ValidationError

from tests.helpers import dataset_from_events


def _event(event_id, *, path=1, port=445, proto="tcp", md5_byte="a"):
    return AttackEvent(
        event_id=event_id,
        timestamp=3600 * event_id,
        source=IPv4Address(0x0A000001 + event_id),
        sensor=IPv4Address(0xC0A80001 + (event_id % 3)),
        exploit=ExploitObservable(fsm_path_id=path, dst_port=port),
        payload=PayloadObservable(
            protocol=proto, interaction=InteractionType.PUSH, filename="x.exe"
        ),
        malware=MalwareObservable(
            md5=md5_byte * 32, size=100 + event_id, magic="PE32", pe=None
        ),
    )


def _events(n=8):
    return [
        _event(i, path=i % 3, port=445 if i % 2 else 139, md5_byte="abcd"[i % 4])
        for i in range(n)
    ]


class TestRoundTrip:
    def test_observations_match_scalar_extraction(self):
        """Decoded rows == the row-wise (values, source, sensor) triples."""
        events = _events()
        store = events_to_columnar(events)
        for dimension, feature_set in default_feature_sets().items():
            expected = [
                (feature_set.extract(e), int(e.source), int(e.sensor))
                for e in events
                if feature_set.applies_to(e)
            ]
            assert store.dimensions[dimension].observations() == expected

    def test_dataset_to_columnar_round_trip(self):
        dataset = dataset_from_events(_events())
        store = dataset.to_columnar()
        assert store.n_events == len(dataset)
        assert list(store.event_ids) == [e.event_id for e in dataset]
        assert list(store.timestamps) == [e.timestamp for e in dataset]
        assert list(store.sources) == [int(e.source) for e in dataset]
        for row in range(store.dimensions[Dimension.EPSILON].n_rows):
            decoded = store.dimensions[Dimension.EPSILON].decode_row(row)
            assert decoded == store.dimensions[Dimension.EPSILON].value_tuples()[row]

    def test_view_cached_until_mutation(self):
        dataset = dataset_from_events(_events(4))
        first = dataset.to_columnar()
        assert dataset.to_columnar() is first
        dataset.add_event(_event(4))
        assert dataset.to_columnar() is not first
        assert dataset.to_columnar().n_events == 5

    def test_vocabulary_decodes_to_original_values(self):
        store = events_to_columnar(_events())
        cols = store.dimensions[Dimension.MU]
        for f, vocab in enumerate(cols.vocabularies):
            for code in cols.codes[:, f]:
                assert vocab.intern(vocab.decode(int(code))) == int(code)


class TestBuilder:
    def test_incremental_equals_one_shot(self):
        """Shard-by-shard appends == one pass over the whole list."""
        events = _events(10)
        builder = ColumnarBuilder()
        builder.add_events(events[:3])
        builder.add_events(events[3:7])
        builder.add_events(events[7:])
        merged = builder.build()
        whole = events_to_columnar(events)
        assert merged.summary() == whole.summary()
        for dimension in merged.dimensions:
            assert (
                merged.dimensions[dimension].observations()
                == whole.dimensions[dimension].observations()
            )

    def test_out_of_order_event_ids_rejected(self):
        builder = ColumnarBuilder()
        builder.add_event(_event(3))
        with pytest.raises(ValidationError):
            builder.add_event(_event(2))



class TestObservableAccessor:
    """π columns built one extraction per shared payload object equal
    the columns built one extraction per event."""

    @staticmethod
    def _per_event(feature_set):
        return FeatureSet(
            feature_set.dimension,
            feature_set.features,
            applies=feature_set.applies_to,
            observable=None,
        )

    def _assert_same_columns(self, events):
        shared = pi_features()
        assert shared.observable is not None
        got = events_to_columnar(events, {Dimension.PI: shared})
        want = events_to_columnar(events, {Dimension.PI: self._per_event(shared)})
        got, want = got.dimensions[Dimension.PI], want.dimensions[Dimension.PI]
        assert np.array_equal(got.codes, want.codes)
        assert np.array_equal(got.event_ids, want.event_ids)
        assert [v.values() for v in got.vocabularies] == [v.values() for v in want.vocabularies]
        assert got.value_tuples() == want.value_tuples()

    def test_equal_payload_objects_and_shared_ones(self):
        shared = PayloadObservable(
            protocol="ftp", interaction=InteractionType.PULL, filename="a.exe", port=21
        )
        events = []
        for i in range(12):
            payload = shared if i % 3 else replace(shared, protocol="ftp" if i % 2 else "tftp")
            events.append(replace(_event(i), payload=payload))
        self._assert_same_columns(events)

    def test_reduced_scenario(self, small_dataset):
        self._assert_same_columns(list(small_dataset.events))
