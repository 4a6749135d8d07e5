"""The metrics registry: instruments, labels, snapshots, activation."""

import pickle

import pytest

from repro.obs.metrics import (
    NULL_REGISTRY,
    MetricsRegistry,
    MetricsSnapshot,
    active,
    base_name,
    metric_key,
    upgrade_snapshot,
    use,
)
from repro.obs.sketch import QuantileSketch
from repro.util.validation import ValidationError


class TestMetricKey:
    def test_bare_name_without_labels(self):
        assert metric_key("cache.hit", {}) == "cache.hit"

    def test_labels_render_sorted(self):
        key = metric_key("executor.items", {"jobs": 4, "backend": "thread"})
        assert key == "executor.items{backend=thread,jobs=4}"

    def test_base_name_strips_labels(self):
        assert base_name("epm.clusters{dimension=mu}") == "epm.clusters"
        assert base_name("cache.hit") == "cache.hit"

    def test_empty_name_rejected(self):
        with pytest.raises(ValidationError):
            metric_key("", {})


class TestCounter:
    def test_increments_accumulate(self):
        registry = MetricsRegistry()
        registry.counter("cache.hit").inc()
        registry.counter("cache.hit").inc(3)
        assert registry.snapshot().counter("cache.hit") == 4

    def test_negative_increment_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValidationError):
            registry.counter("cache.hit").inc(-1)

    def test_label_combinations_are_distinct_instruments(self):
        registry = MetricsRegistry()
        registry.counter("epm.observations", dimension="mu").inc(5)
        registry.counter("epm.observations", dimension="pi").inc(2)
        snapshot = registry.snapshot()
        assert snapshot.counter("epm.observations", dimension="mu") == 5
        assert snapshot.counter("epm.observations", dimension="pi") == 2
        assert snapshot.total("epm.observations") == 7

    def test_same_labels_merge_across_call_sites(self):
        registry = MetricsRegistry()
        registry.counter("executor.items", backend="serial").inc(10)
        registry.counter("executor.items", backend="serial").inc(10)
        assert registry.snapshot().counter("executor.items", backend="serial") == 20


class TestGauge:
    def test_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("lsh.clusters").set(3)
        registry.gauge("lsh.clusters").set(7)
        assert registry.snapshot().gauge("lsh.clusters") == 7


class TestSnapshot:
    def _populated(self) -> MetricsSnapshot:
        registry = MetricsRegistry()
        registry.counter("cache.hit").inc(2)
        registry.counter("epm.clusters_found", dimension="mu").inc(4)
        registry.gauge("lsh.clusters").set(6)
        registry.sketch("sandbox.batch_size").observe(3)
        return registry.snapshot()

    def test_json_round_trip(self):
        snapshot = self._populated()
        import json

        rebuilt = MetricsSnapshot.from_dict(json.loads(snapshot.to_json()))
        assert rebuilt == snapshot

    def test_json_encoding_is_deterministic(self):
        assert self._populated().to_json() == self._populated().to_json()

    def test_unknown_schema_rejected(self):
        with pytest.raises(ValidationError):
            MetricsSnapshot.from_dict({"schema": 99})

    def test_names_strip_labels_across_sections(self):
        assert self._populated().names() == {
            "cache.hit",
            "epm.clusters_found",
            "lsh.clusters",
            "sandbox.batch_size",
        }

    def test_untouched_instruments_read_zero(self):
        snapshot = self._populated()
        assert snapshot.counter("never.recorded") == 0
        assert snapshot.gauge("never.recorded") == 0

    def test_snapshot_is_picklable(self):
        snapshot = self._populated()
        assert pickle.loads(pickle.dumps(snapshot)) == snapshot

    def test_snapshot_is_frozen_in_time(self):
        registry = MetricsRegistry()
        counter = registry.counter("cache.hit")
        counter.inc()
        snapshot = registry.snapshot()
        counter.inc(10)
        assert snapshot.counter("cache.hit") == 1


class TestActivation:
    def test_default_is_the_null_registry(self):
        assert active() is NULL_REGISTRY
        assert active().recording is False

    def test_use_installs_and_restores(self):
        registry = MetricsRegistry()
        with use(registry):
            assert active() is registry
            active().counter("cache.hit").inc()
        assert active() is NULL_REGISTRY
        assert registry.snapshot().counter("cache.hit") == 1

    def test_use_restores_on_exception(self):
        registry = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with use(registry):
                raise RuntimeError("boom")
        assert active() is NULL_REGISTRY

    def test_null_registry_swallows_everything(self):
        NULL_REGISTRY.counter("x", a=1).inc(5)
        NULL_REGISTRY.gauge("y").set(2)
        NULL_REGISTRY.sketch("z").observe(0.1)
        snapshot = NULL_REGISTRY.snapshot()
        assert snapshot.counters == {} and snapshot.gauges == {}
        assert snapshot.sketches == {}


class TestSketchInstrument:
    def test_observe_and_quantile(self):
        registry = MetricsRegistry()
        sketch = registry.sketch("executor.chunk_seconds")
        for value in (1.0, 2.0, 4.0):
            sketch.observe(value)
        assert sketch.count == 3
        assert sketch.quantile(0.5) == pytest.approx(2.0, rel=0.02)

    def test_same_key_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.sketch("a.sketch") is registry.sketch("a.sketch")
        assert registry.sketch("a.sketch") is not registry.sketch(
            "a.sketch", shard=1
        )

    def test_shape_mismatch_on_one_key_rejected(self):
        # The registry's sketches all have the default shape; merging a
        # payload of another (alpha, max_bins) into one is refused.
        foreign = QuantileSketch(alpha=0.05)
        foreign.observe(1.0)
        registry = MetricsRegistry()
        registry.sketch("a.sketch").observe(2.0)
        with pytest.raises(ValidationError):
            registry.merge_snapshot({"sketches": {"a.sketch": foreign.as_dict()}})

    def test_snapshot_round_trip_preserves_sketches(self):
        registry = MetricsRegistry()
        registry.sketch("a.sketch").observe(3.0)
        payload = registry.snapshot().as_dict()
        assert payload["schema"] == 3
        assert "histograms" not in payload
        rebuilt = MetricsSnapshot.from_dict(payload)
        assert rebuilt.sketches["a.sketch"]["count"] == 1

    def test_schema_one_payloads_still_load(self):
        snapshot = MetricsSnapshot.from_dict(
            {"schema": 1, "counters": {"cache.hit": 2}}
        )
        assert snapshot.counters["cache.hit"] == 2
        assert snapshot.sketches == {}
        assert snapshot.watermarks == {}


class TestLegacyUpgrade:
    def _legacy(self) -> dict:
        sketch = QuantileSketch()
        sketch.observe(3.0)
        histogram = {"buckets": {"1.0": 0, "+inf": 1}, "count": 1, "sum": 3.0}
        return {
            "schema": 2,
            "counters": {"cache.hit": 1},
            "histograms": {
                "sandbox.batch_size": histogram,
                "executor.chunk_seconds": histogram,
            },
            "sketches": {
                "executor.chunk_seconds_sketch": sketch.as_dict(),
                "shards.events_sketch{shard=1}": sketch.as_dict(),
                "events.interarrival": sketch.as_dict(),
            },
        }

    def test_schema_two_twins_take_the_plain_name(self):
        upgraded = upgrade_snapshot(self._legacy())
        assert upgraded["schema"] == 3
        assert "histograms" not in upgraded
        assert sorted(upgraded["sketches"]) == [
            "events.interarrival",
            "executor.chunk_seconds",
            "shards.events{shard=1}",
        ]
        assert upgraded["counters"] == {"cache.hit": 1}

    def test_histogram_only_distributions_read_as_absent(self):
        snapshot = MetricsSnapshot.from_dict(self._legacy())
        assert "sandbox.batch_size" not in snapshot.names()
        assert snapshot.sketches["executor.chunk_seconds"]["count"] == 1

    def test_current_and_unknown_schemas_pass_through(self):
        current = MetricsRegistry().snapshot().as_dict()
        assert upgrade_snapshot(current) == current
        assert upgrade_snapshot({"schema": 99}) == {"schema": 99}


class TestWatermarkInstrument:
    def test_update_keeps_the_maximum(self):
        registry = MetricsRegistry()
        mark = registry.watermark("worker.peak_rss_kb")
        for value in (10, 50, 20):
            mark.update(value)
        assert mark.value == 50.0

    def test_snapshot_and_accessor(self):
        registry = MetricsRegistry()
        registry.watermark("q.depth", worker=1).update(7)
        snapshot = registry.snapshot()
        assert snapshot.watermark("q.depth", worker=1) == 7.0
        assert snapshot.watermark("q.depth", worker=2) == 0


class TestMergeSnapshotSections:
    def test_sketches_and_watermarks_fold_in(self):
        worker_a, worker_b = MetricsRegistry(), MetricsRegistry()
        worker_a.sketch("s").observe(1.0)
        worker_b.sketch("s").observe(3.0)
        worker_a.watermark("w").update(5)
        worker_b.watermark("w").update(9)
        parent = MetricsRegistry()
        parent.merge_snapshot(worker_a.snapshot())
        parent.merge_snapshot(worker_b.snapshot())
        merged = parent.snapshot()
        assert merged.sketches["s"]["count"] == 2
        assert merged.watermarks["w"] == 9.0

    def test_watermark_merge_is_commutative(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.watermark("w").update(5)
        b.watermark("w").update(9)
        forward, backward = MetricsRegistry(), MetricsRegistry()
        forward.merge_snapshot(a.snapshot())
        forward.merge_snapshot(b.snapshot())
        backward.merge_snapshot(b.snapshot())
        backward.merge_snapshot(a.snapshot())
        assert forward.snapshot().as_dict() == backward.snapshot().as_dict()


class TestNullRegistryNewInstruments:
    def test_sketch_and_watermark_are_free_no_ops(self):
        NULL_REGISTRY.sketch("anything").observe(1.0)
        NULL_REGISTRY.watermark("anything").update(5)
        assert NULL_REGISTRY.recording is False
