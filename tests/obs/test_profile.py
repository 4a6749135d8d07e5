"""Span profiling probes and the span-tree exporters."""

import json
import random

import pytest

from repro.obs.export import export_payload
from repro.obs.profile import (
    PROFILE_ATTRS,
    SpanProbe,
    chrome_trace,
    flame_view,
)
from repro.obs.trace import Tracer, TraceSpan


def _random_tree(rng: random.Random, depth: int = 0) -> dict:
    """An exported-span-tree shape with random fan-out and durations."""
    node = {
        "name": f"span-{rng.randrange(10**6)}",
        "seconds": round(rng.uniform(0.0, 3.0), 6),
    }
    if rng.random() < 0.4:
        node["start"] = round(rng.uniform(0.0, 5.0), 6)
    if rng.random() < 0.5:
        node["attributes"] = {"k": rng.randrange(100), "note": "ünïcode ✓"}
    if depth < 3 and rng.random() < 0.7:
        node["children"] = [
            _random_tree(rng, depth + 1) for _ in range(rng.randrange(1, 4))
        ]
    return node


def _count_spans(node: dict) -> int:
    return 1 + sum(_count_spans(child) for child in node.get("children", ()))


class TestSpanProbe:
    def test_probe_reports_all_attrs(self):
        probe = SpanProbe()
        token = probe.begin()
        sum(i * i for i in range(20_000))  # burn some CPU
        attrs = probe.end(token)
        assert set(attrs) == set(PROFILE_ATTRS)
        assert attrs["cpu_seconds"] >= 0
        assert attrs["max_rss_kb"] > 0  # Linux CI always has resource

    def test_profiling_tracer_attaches_attrs_to_every_span(self):
        tracer = Tracer("run")
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        root = tracer.finish()
        for name in ("outer", "inner"):
            span = root.find(name)
            assert set(PROFILE_ATTRS) <= set(span.attributes)


class TestChromeTrace:
    @pytest.mark.parametrize("seed", range(20))
    def test_round_trip_properties(self, seed):
        """Property-style: every span appears exactly once, durations
        and timestamps are non-negative, attributes ride as args."""
        tree = _random_tree(random.Random(seed))
        payload = chrome_trace(tree)
        events = payload["traceEvents"]
        assert len(events) == _count_spans(tree)
        names = sorted(e["name"] for e in events)
        expected = []

        def collect(node):
            expected.append(node["name"])
            for child in node.get("children", ()):
                collect(child)

        collect(tree)
        assert names == sorted(expected)
        for event in events:
            assert event["ph"] == "X"
            assert event["dur"] >= 0
            assert event["ts"] >= 0
            assert isinstance(event["pid"], int) and isinstance(event["tid"], int)

    def test_attributes_become_args(self):
        tree = {
            "name": "scenario",
            "seconds": 1.0,
            "attributes": {"events": 42},
        }
        (event,) = chrome_trace(tree)["traceEvents"]
        assert event["args"] == {"events": 42}

    def test_spans_without_start_lay_out_sequentially(self):
        tree = {
            "name": "root",
            "seconds": 3.0,
            "children": [
                {"name": "a", "seconds": 1.0},
                {"name": "b", "seconds": 2.0},
            ],
        }
        events = {e["name"]: e for e in chrome_trace(tree)["traceEvents"]}
        assert events["a"]["ts"] == 0
        assert events["b"]["ts"] == 1_000_000  # opens where a closed

    def test_recorded_starts_win_over_layout(self):
        tree = {
            "name": "root",
            "seconds": 3.0,
            "start": 0.0,
            "children": [{"name": "a", "seconds": 1.0, "start": 0.5}],
        }
        events = {e["name"]: e for e in chrome_trace(tree)["traceEvents"]}
        assert events["a"]["ts"] == 500_000

    def test_live_tracer_trees_export_loadable_json(self):
        tracer = Tracer("scenario")
        with tracer.span("observe"):
            with tracer.span("sensors"):
                pass
        with tracer.span("epm"):
            pass
        root = tracer.finish()
        exported = export_payload({"span_tree": root.export()}, "chrome")
        payload = json.loads(exported)
        assert payload["displayTimeUnit"] == "ms"
        assert {e["name"] for e in payload["traceEvents"]} == {
            "scenario",
            "observe",
            "sensors",
            "epm",
        }


class TestFlameView:
    def test_renders_every_span_with_bars(self):
        tracer = Tracer("scenario")
        with tracer.span("observe"):
            with tracer.span("sensors"):
                pass
        text = flame_view(tracer.finish().export())
        assert "scenario" in text
        assert "  observe" in text
        assert "    sensors" in text

    def test_profile_attrs_show_in_the_view(self):
        tree = {
            "name": "epm",
            "seconds": 2.0,
            "attributes": {
                "cpu_seconds": 1.5,
                "max_rss_kb": 1024,
            },
        }
        text = flame_view(tree)
        assert "cpu=1.500s" in text
        assert "rss=1024KiB" in text

    def test_live_span_renders_like_its_export(self):
        # --timings hands the view the run's live root span.
        root = TraceSpan("scenario", seconds=3.0, attributes={"cpu_seconds": 2.5})
        stage = root.child("bcluster")
        stage.seconds = 1.5
        stage.child("lsh.index").seconds = 1.5
        text = flame_view(root)
        assert text == flame_view(root.export())
        lines = text.splitlines()
        assert [line.split()[0] for line in lines] == ["scenario", "bcluster", "lsh.index"]
        assert lines[1].startswith("  bcluster") and lines[2].startswith("    lsh.index")
        assert "100.0%" in lines[0] and "cpu=2.500s" in lines[0]
        assert "50.0%" in lines[1]
