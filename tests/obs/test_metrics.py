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
    use,
)
from repro.obs.sketch import QuantileSketch
from repro.util.validation import ValidationError


class TestMetricKey:
    def test_bare_name_without_labels(self):
        assert metric_key("cache.hit", {}) == "cache.hit"

    def test_labels_render_sorted(self):
        key = metric_key("cache.stage_hit", {"stage": "epm", "dimension": "mu"})
        assert key == "cache.stage_hit{dimension=mu,stage=epm}"

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
        registry.counter("cache.stage_hit", stage="epm").inc(10)
        registry.counter("cache.stage_hit", stage="epm").inc(10)
        assert registry.snapshot().counter("cache.stage_hit", stage="epm") == 20


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

    @pytest.mark.parametrize("schema", [1, 2])
    def test_older_schemas_are_refused_not_upgraded(self, schema):
        with pytest.raises(ValidationError):
            MetricsSnapshot.from_dict({"schema": schema, "counters": {"cache.hit": 2}})

    def test_a_stored_empty_high_water_section_is_ignored(self):
        # Manifest schema 8 files written before the section was dropped
        # carry "watermarks": {} in their snapshot.
        payload = {**self._populated().as_dict(), "watermarks": {}}
        assert MetricsSnapshot.from_dict(payload) == self._populated()

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
        sketch = registry.sketch("lsh.bucket_size")
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
        # payload of another (alpha, max_bins) into one is refused (the
        # run folds the event bus's gap sketch in this way).
        foreign = QuantileSketch(alpha=0.05)
        foreign.observe(1.0)
        registry = MetricsRegistry()
        registry.sketch("a.sketch").observe(2.0)
        with pytest.raises(ValidationError):
            registry.sketch("a.sketch").merge(foreign.as_dict())

    def test_snapshot_round_trip_preserves_sketches(self):
        registry = MetricsRegistry()
        registry.sketch("a.sketch").observe(3.0)
        payload = registry.snapshot().as_dict()
        assert payload["schema"] == 3
        assert sorted(payload) == ["counters", "gauges", "schema", "sketches"]
        rebuilt = MetricsSnapshot.from_dict(payload)
        assert rebuilt.sketches["a.sketch"]["count"] == 1


class TestNullRegistryNewInstruments:
    def test_sketch_is_a_free_no_op(self):
        NULL_REGISTRY.sketch("anything").observe(1.0)
        assert NULL_REGISTRY.recording is False
