"""Hierarchical trace spans: nesting, lookup, export, activation."""

import time

import pytest

from repro.obs.profile import PROFILE_ATTRS
from repro.obs.trace import (
    NULL_TRACER,
    Tracer,
    TraceSpan,
    current_tracer,
    use_tracer,
)
from repro.util.validation import ValidationError


class TestTracer:
    def test_nested_spans_build_a_tree(self):
        tracer = Tracer("scenario")
        with tracer.span("enrich"):
            with tracer.span("av_scan"):
                pass
            with tracer.span("sandbox_batch"):
                pass
        root = tracer.finish()
        assert [child.name for child in root.children] == ["enrich"]
        assert [g.name for g in root.children[0].children] == [
            "av_scan",
            "sandbox_batch",
        ]

    def test_spans_measure_elapsed_time(self):
        tracer = Tracer()
        with tracer.span("sleepy"):
            time.sleep(0.02)
        root = tracer.finish()
        assert root.find("sleepy").seconds >= 0.015
        assert root.seconds == pytest.approx(root.children[0].seconds)

    def test_attributes_attach_at_open_and_inside(self):
        tracer = Tracer()
        with tracer.span("observe", sensors=30) as span:
            span.set(events=346)
        observed = tracer.finish().find("observe")
        own = {
            key: value
            for key, value in observed.attributes.items()
            if key not in PROFILE_ATTRS  # the span probe's, set at close
        }
        assert own == {"sensors": 30, "events": 346}

    def test_span_closes_even_when_body_raises(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("nope")
        root = tracer.finish()
        assert root.find("doomed") is not None
        assert tracer.current is root

    def test_finish_rejects_open_spans(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with pytest.raises(ValidationError):
                tracer.finish()

    def test_empty_span_name_rejected(self):
        tracer = Tracer()
        with pytest.raises(ValidationError):
            with tracer.span(""):
                pass

    def test_spans_record_start_offsets_from_the_epoch(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        root = tracer.finish()
        first, second = root.children
        assert root.start == 0.0
        assert first.start is not None and first.start >= 0.0
        assert second.start >= first.start + first.seconds
        exported = root.export()
        assert exported["start"] == 0.0
        assert "start" in exported["children"][0]

    def test_hand_built_spans_have_no_start(self):
        span = TraceSpan("loose", seconds=1.0)
        assert span.start is None
        assert "start" not in span.export()


class TestTraceSpan:
    def _tree(self) -> TraceSpan:
        root = TraceSpan("scenario", seconds=3.0)
        stage = root.child("bcluster")
        stage.seconds = 2.0
        stage.set(clusters=6)
        sub = stage.child("lsh.index")
        sub.seconds = 1.5
        other = root.child("observe")
        other.seconds = 1.0
        return root

    def test_find_searches_depth_first(self):
        root = self._tree()
        assert root.find("lsh.index").seconds == 1.5
        assert root.find("nope") is None

    def test_export_shape(self):
        exported = self._tree().export()
        assert exported["name"] == "scenario"
        assert exported["seconds"] == 3.0
        stage = exported["children"][0]
        assert stage["attributes"] == {"clusters": 6}
        assert stage["children"][0]["name"] == "lsh.index"
        # Leaves without attributes/children omit those keys entirely.
        leaf = exported["children"][1]
        assert set(leaf) == {"name", "seconds"}


class TestActivation:
    def test_default_is_the_null_tracer(self):
        assert current_tracer() is NULL_TRACER

    def test_use_tracer_installs_and_restores(self):
        tracer = Tracer()
        with use_tracer(tracer):
            assert current_tracer() is tracer
            with current_tracer().span("stage"):
                pass
        assert current_tracer() is NULL_TRACER
        assert tracer.finish().find("stage") is not None

    def test_null_tracer_spans_are_free_no_ops(self):
        with NULL_TRACER.span("anything", attr=1) as span:
            span.set(more=2)  # must not raise; records nothing
