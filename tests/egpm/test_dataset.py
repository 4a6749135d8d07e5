"""Tests for the SGNET dataset store."""

import pytest

from repro.egpm.dataset import SGNetDataset
from repro.util.validation import ValidationError

from tests.egpm.test_events import make_event
from tests.helpers import load_jsonl


class TestIngestion:
    def test_add_and_len(self):
        dataset = SGNetDataset()
        dataset.add_event(make_event(0))
        dataset.add_event(make_event(1))
        assert len(dataset) == 2

    def test_event_id_ordering_enforced(self):
        dataset = SGNetDataset()
        with pytest.raises(ValidationError):
            dataset.add_event(make_event(5))

    def test_next_event_id(self):
        dataset = SGNetDataset()
        assert dataset.next_event_id() == 0
        dataset.add_event(make_event(0))
        assert dataset.next_event_id() == 1

    def test_sample_index_dedupes_by_md5(self):
        dataset = SGNetDataset()
        dataset.add_event(make_event(0))
        dataset.add_event(make_event(1))  # same binary content, same md5
        assert dataset.n_samples == 1
        record = next(iter(dataset.samples.values()))
        assert record.n_events == 2

    def test_behavior_handle_attached_once(self):
        dataset = SGNetDataset()
        dataset.add_event(make_event(0), behavior_handle="code-A")
        dataset.add_event(make_event(1), behavior_handle="code-B")
        record = next(iter(dataset.samples.values()))
        assert record.behavior_handle == "code-A"

    def test_event_without_malware_not_in_sample_index(self):
        dataset = SGNetDataset()
        dataset.add_event(make_event(0, with_malware=False))
        assert dataset.n_samples == 0


class TestQueries:
    @pytest.fixture()
    def dataset(self):
        data = SGNetDataset()
        for i in range(4):
            data.add_event(make_event(i))
        return data

    def test_events_for_sample(self, dataset):
        md5 = next(iter(dataset.samples))
        assert len(dataset.events_for_sample(md5)) == 4

    def test_events_for_unknown_sample(self, dataset):
        assert dataset.events_for_sample("0" * 32) == []

    def test_select(self, dataset):
        assert len(dataset.select(lambda e: e.event_id % 2 == 0)) == 2

    def test_counters(self, dataset):
        assert dataset.n_sources == 1
        assert dataset.n_sensors == 1

    def test_summary(self, dataset):
        summary = dataset.summary()
        assert summary["events"] == 4
        assert summary["samples"] == 1
        assert summary["valid_samples"] == 1

    def test_iteration_order(self, dataset):
        assert [e.event_id for e in dataset] == [0, 1, 2, 3]


class TestPersistence:
    def test_jsonl_roundtrip(self, tmp_path):
        dataset = SGNetDataset()
        for i in range(3):
            dataset.add_event(make_event(i))
        path = tmp_path / "events.jsonl"
        written = dataset.save_jsonl(path)
        assert written == 3
        loaded = load_jsonl(path)
        assert len(loaded) == 3
        assert loaded.events == dataset.events
        assert set(loaded.samples) == set(dataset.samples)


class TestRealisticDataset:
    def test_small_run_consistency(self, small_dataset):
        summary = small_dataset.summary()
        assert summary["events"] > 500
        assert summary["valid_samples"] <= summary["samples"]
        assert summary["samples"] <= summary["events"]

    def test_sample_event_counts_sum(self, small_dataset):
        total = sum(r.n_events for r in small_dataset.samples.values())
        with_sample = sum(1 for e in small_dataset if e.malware is not None)
        assert total == with_sample

    def test_every_event_has_exploit_dimension(self, small_dataset):
        assert all(e.exploit.dst_port > 0 for e in small_dataset)
