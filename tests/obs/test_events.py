"""The live event stream: bus, transports, replay, validation."""

import json
import threading

import pytest

from repro.obs.events import (
    EVENT_KINDS,
    EVENT_SCHEMA,
    NULL_BUS,
    EventBus,
    FileTransport,
    MemoryTransport,
    PipelineEvent,
    ProgressRenderer,
    active_bus,
    iter_events,
    read_events,
    use_bus,
)
from repro.obs.validate import crosscheck_events, validate_events
from repro.util.validation import ValidationError


class _FakeClock:
    """A controllable monotonic clock for deterministic timestamps."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


class TestPipelineEvent:
    def test_as_dict_layout_and_round_trip(self):
        event = PipelineEvent(seq=3, t=1.2345678, kind="stage.start", fields={"b": 2, "a": 1})
        payload = event.as_dict()
        assert payload == {
            "schema": EVENT_SCHEMA,
            "seq": 3,
            "t": 1.234568,
            "kind": "stage.start",
            "fields": {"a": 1, "b": 2},
        }
        assert list(payload["fields"]) == ["a", "b"]  # key-sorted
        rebuilt = PipelineEvent.from_dict(json.loads(event.to_json()))
        assert rebuilt.seq == event.seq
        assert rebuilt.kind == event.kind
        assert rebuilt.fields == event.fields

    def test_from_dict_rejects_wrong_schema(self):
        with pytest.raises(ValidationError):
            PipelineEvent.from_dict({"schema": 99, "seq": 0, "kind": "run.start"})


class TestEventBus:
    def test_sequences_contiguously_from_zero(self):
        sink = MemoryTransport()
        bus = EventBus([sink])
        for kind in ("run.start", "stage.start", "stage.finish", "run.finish"):
            bus.emit(kind)
        assert [event.seq for event in sink.events] == [0, 1, 2, 3]

    def test_timestamps_are_monotonic_offsets_from_bus_epoch(self):
        clock = _FakeClock()
        sink = MemoryTransport()
        bus = EventBus([sink], clock=clock)
        clock.now += 1.5
        bus.emit("run.start")
        clock.now += 0.5
        bus.emit("run.finish")
        assert [event.t for event in sink.events] == [1.5, 2.0]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            EventBus().emit("made.up")

    def test_summary_counts_per_kind_sorted(self):
        bus = EventBus()
        bus.emit("stage.start")
        bus.emit("stage.finish")
        bus.emit("stage.start")
        assert bus.summary() == {"stage.finish": 1, "stage.start": 2}
        assert list(bus.summary()) == sorted(bus.summary())

    def test_emission_is_thread_safe(self):
        sink = MemoryTransport()
        bus = EventBus([sink])

        def emit_many():
            for _ in range(200):
                bus.emit("cache.hit", items=1)

        threads = [threading.Thread(target=emit_many) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(event.seq for event in sink.events) == list(range(800))
        assert bus.summary() == {"cache.hit": 800}

    def test_null_bus_is_free_and_silent(self):
        assert NULL_BUS.recording is False
        assert NULL_BUS.emit("anything.goes", x=1) is None  # not even validated
        assert NULL_BUS.summary() == {}

    def test_use_bus_restores_previous(self):
        bus = EventBus()
        before = active_bus()
        with use_bus(bus):
            assert active_bus() is bus
        assert active_bus() is before


class TestFileTransportReplay:
    def _write_log(self, tmp_path):
        path = tmp_path / "events.jsonl"
        clock = _FakeClock()
        bus = EventBus([FileTransport(path)], clock=clock)
        bus.emit("run.start", seed=7)
        clock.now += 0.25
        bus.emit("stage.start", stage="observe")
        clock.now += 1.0
        bus.emit("stage.finish", stage="observe", seconds=1.0)
        bus.emit("run.finish", seconds=1.25)
        bus.close()
        return path

    def test_replay_is_deterministic_and_loss_free(self, tmp_path):
        path = self._write_log(tmp_path)
        events = read_events(path)
        assert [event.kind for event in events] == [
            "run.start", "stage.start", "stage.finish", "run.finish"
        ]
        assert [event.seq for event in events] == [0, 1, 2, 3]
        assert events[1].fields == {"stage": "observe"}
        # replaying again yields identical events
        assert [e.as_dict() for e in read_events(path)] == [
            e.as_dict() for e in events
        ]

    def test_log_survives_validator(self, tmp_path):
        path = self._write_log(tmp_path)
        lines = path.read_text().splitlines()
        assert validate_events(lines) == []

    def test_close_is_idempotent_and_stops_writes(self, tmp_path):
        path = tmp_path / "events.jsonl"
        transport = FileTransport(path)
        bus = EventBus([transport])
        bus.emit("run.start")
        bus.close()
        bus.close()
        transport.handle(PipelineEvent(seq=9, t=0.0, kind="run.finish"))
        assert len(path.read_text().splitlines()) == 1

    def test_parent_directories_are_created(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "events.jsonl"
        bus = EventBus([FileTransport(path)])
        bus.emit("run.start")
        bus.close()
        assert path.is_file()


class TestIterEvents:
    def test_partial_trailing_line_never_yielded(self, tmp_path):
        path = tmp_path / "events.jsonl"
        complete = PipelineEvent(seq=0, t=0.0, kind="run.start").to_json()
        path.write_text(complete + "\n" + '{"schema": 1, "seq": 1, "ki')
        events = list(iter_events(path))
        assert len(events) == 1
        assert events[0].kind == "run.start"

    def test_follow_picks_up_appends(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(PipelineEvent(seq=0, t=0.0, kind="run.start").to_json() + "\n")
        seen = []
        done = threading.Event()

        def consume():
            for event in iter_events(path, follow=True, poll_seconds=0.01,
                                      stop=lambda: len(seen) >= 2):
                seen.append(event)
            done.set()

        thread = threading.Thread(target=consume)
        thread.start()
        with path.open("a") as handle:
            handle.write(PipelineEvent(seq=1, t=0.1, kind="run.finish").to_json() + "\n")
        assert done.wait(timeout=10.0)
        thread.join()
        assert [event.kind for event in seen] == ["run.start", "run.finish"]

    def test_absent_file_without_follow_yields_nothing(self, tmp_path):
        assert list(iter_events(tmp_path / "missing.jsonl")) == []


#: One malformed line of each shape an event log can carry.
MALFORMED_LINES = {
    "not-json": "{not json",
    "not-an-object": "[1]",
    "no-kind": '{"schema": 1, "seq": 1, "t": 0.1, "fields": {}}',
}


class TestMalformedEventLines:
    """A bad line is one error naming the file and line, not a traceback."""

    @pytest.mark.parametrize("shape", sorted(MALFORMED_LINES))
    def test_iter_events_names_the_file_and_line(self, tmp_path, shape):
        path = tmp_path / "events.jsonl"
        good = PipelineEvent(seq=0, t=0.0, kind="run.start").to_json()
        path.write_text(f"{good}\n\n{MALFORMED_LINES[shape]}\n")
        with pytest.raises(ValidationError, match=f"{path} line 3: "):
            list(iter_events(path))

    @pytest.mark.parametrize("payload", [[1], {"schema": 1, "seq": 0}, {"schema": 1, "kind": "x"}])
    def test_from_dict_refuses_non_events(self, payload):
        with pytest.raises(ValidationError):
            PipelineEvent.from_dict(payload)

    @pytest.mark.parametrize("shape", sorted(MALFORMED_LINES))
    def test_validators_report_the_line_and_move_on(self, shape):
        lines = [
            PipelineEvent(seq=0, t=0.0, kind="stage.finish").to_json(),
            MALFORMED_LINES[shape],
            PipelineEvent(seq=2, t=0.2, kind="mystery").to_json(),
        ]
        errors = validate_events(lines)
        assert any(error.startswith("events line 2: ") for error in errors)
        if shape == "not-an-object":
            assert "events line 2: not a JSON object" in errors
        assert "events line 3: unknown event kind 'mystery'" in errors
        manifest = {"span_tree": {"name": "scenario", "children": [{"name": "s0"}]}}
        assert crosscheck_events(lines, manifest) == []


class TestProgressRenderer:
    class _Sink:
        def __init__(self):
            self.text = ""

        def write(self, chunk):
            self.text += chunk

        def flush(self):
            pass

    def test_renders_run_and_stage_lines(self):
        sink = self._Sink()
        bus = EventBus([ProgressRenderer(sink)])
        bus.emit("run.start", seed=7)
        bus.emit("stage.start", stage="enrich", depth=1)
        bus.emit("cache.stage_miss", stage="enrich")
        bus.emit("stage.finish", stage="enrich", seconds=0.05)
        bus.emit("run.finish", seconds=0.06)
        assert sink.text.splitlines() == [
            "[progress] run started seed=7",
            "[progress] enrich finished in 0.050s",
            "[progress] run finished seconds=0.06",
        ]


class TestValidateEvents:
    def _lines(self, *events):
        return [event.to_json() for event in events]

    def test_good_log_is_valid(self):
        lines = self._lines(
            PipelineEvent(seq=0, t=0.0, kind="run.start"),
            PipelineEvent(seq=1, t=0.5, kind="run.finish"),
        )
        assert validate_events(lines) == []

    def test_sequence_gap_reported(self):
        lines = self._lines(
            PipelineEvent(seq=0, t=0.0, kind="run.start"),
            PipelineEvent(seq=2, t=0.5, kind="run.finish"),
        )
        errors = validate_events(lines)
        assert any("seq" in error and "expected 1" in error for error in errors)
        # A log missing its head is a gap too: every bus numbers from 0.
        errors = validate_events(self._lines(PipelineEvent(seq=3, t=0.0, kind="run.start")))
        assert any("expected 0" in error for error in errors)

    def test_unknown_kind_reported(self):
        lines = ['{"schema": 1, "seq": 0, "t": 0.0, "kind": "mystery.event", "fields": {}}']
        errors = validate_events(lines)
        assert any("unknown event kind" in error for error in errors)

    def test_wrong_schema_reported(self):
        lines = ['{"schema": 99, "seq": 0, "t": 0.0, "kind": "run.start", "fields": {}}']
        errors = validate_events(lines)
        assert any("schema" in error for error in errors)

    def test_unparsable_line_reported(self):
        errors = validate_events(["{not json"])
        assert any("does not parse" in error for error in errors)

    def test_backwards_timestamp_reported(self):
        lines = self._lines(
            PipelineEvent(seq=0, t=5.0, kind="run.start"),
            PipelineEvent(seq=1, t=1.0, kind="run.finish"),
        )
        errors = validate_events(lines)
        assert any("t" in error for error in errors)

    def test_retired_executor_kinds_reported(self):
        # logs written while the pool executors existed carry these kinds
        lines = self._lines(*[
            PipelineEvent(seq=index, t=float(index), kind=kind)
            for index, kind in enumerate(("chunk.plan", "chunk.finish", "worker.failure"))
        ])
        errors = validate_events(lines)
        assert len(errors) == 3
        assert all("unknown event kind" in error for error in errors)

    def test_every_taxonomy_kind_passes(self):
        lines = self._lines(*[
            PipelineEvent(seq=index, t=float(index), kind=kind)
            for index, kind in enumerate(EVENT_KINDS)
        ])
        assert validate_events(lines) == []


class TestCrosscheckEvents:
    def _log(self, n_stage_finishes, extra_kinds=()):
        events = []
        for index in range(n_stage_finishes):
            events.append(PipelineEvent(seq=len(events), t=float(index),
                                        kind="stage.finish", fields={"stage": f"s{index}"}))
        for kind in extra_kinds:
            events.append(PipelineEvent(seq=len(events), t=99.0, kind=kind))
        return [event.to_json() for event in events]

    def _manifest(self, n_spans, event_summary=None):
        children = [{"name": f"s{index}", "seconds": 0.1, "children": []}
                    for index in range(n_spans)]
        manifest = {"span_tree": {"name": "scenario", "children": children}}
        if event_summary is not None:
            manifest["event_summary"] = event_summary
        return manifest

    def test_matching_counts_pass(self):
        lines = self._log(3, extra_kinds=("run.start", "run.finish"))
        manifest = self._manifest(3, {"stage.finish": 3, "run.start": 1})
        assert crosscheck_events(lines, manifest) == []

    def test_span_count_mismatch_reported(self):
        errors = crosscheck_events(self._log(2), self._manifest(3))
        assert any("stage.finish" in error for error in errors)

    def test_log_may_carry_extra_session_events(self):
        # the CLI session bus records cache events outside the run
        lines = self._log(1, extra_kinds=("cache.miss", "cache.store"))
        manifest = self._manifest(1, {"stage.finish": 1})
        assert crosscheck_events(lines, manifest) == []

    def test_log_with_fewer_than_claimed_fails(self):
        lines = self._log(1)
        manifest = self._manifest(1, {"cache.hit": 2})
        errors = crosscheck_events(lines, manifest)
        assert any("cache.hit" in error for error in errors)

    def test_unaccounted_shortfall_still_fails(self):
        lines = self._log(1)
        manifest = self._manifest(3, {"stage.finish": 3})
        errors = crosscheck_events(lines, manifest)
        assert any("stage.finish" in error for error in errors)


class TestInterarrival:
    def test_interarrival_sketch_tracks_gaps(self):
        clock = _FakeClock()
        bus = EventBus([MemoryTransport()], clock=clock)
        for gap in (0.5, 0.25, 1.0):
            clock.now += gap
            bus.emit("cache.hit")
        payload = bus.interarrival()
        assert payload["count"] == 2  # gaps between 3 events
        assert payload["min"] == pytest.approx(0.25)
        assert payload["max"] == pytest.approx(1.0)


class TestIterEventsTruncation:
    def test_follow_survives_truncation_and_rewrite(self, tmp_path):
        path = tmp_path / "events.jsonl"
        # long first event: the rewrite below is unambiguously smaller
        # than the reader's position (the truncation signal)
        path.write_text(
            PipelineEvent(
                seq=0, t=0.0, kind="run.start", fields={"note": "x" * 200}
            ).to_json()
            + "\n"
        )
        seen = []
        done = threading.Event()

        def consume():
            for event in iter_events(path, follow=True, poll_seconds=0.01,
                                     stop=lambda: len(seen) >= 2):
                seen.append(event)
            done.set()

        thread = threading.Thread(target=consume)
        thread.start()
        try:
            # wait until the first event is consumed, then truncate:
            # the file shrinks below the reader's position
            for _ in range(1000):
                if seen:
                    break
                threading.Event().wait(0.01)
            path.write_text(
                PipelineEvent(seq=5, t=9.0, kind="run.finish").to_json() + "\n"
            )
            assert done.wait(timeout=10.0)
        finally:
            thread.join(timeout=10.0)
        assert [event.kind for event in seen] == ["run.start", "run.finish"]

    def test_follow_restarts_when_a_new_run_truncates_the_log(self, tmp_path):
        """A second run to the same ``--events`` path truncates the file:
        the follower re-reads it from the start, new sequence and all."""
        path = tmp_path / "events.jsonl"
        first = EventBus([FileTransport(path)])
        for _ in range(3):
            first.emit("cache.hit")
        first.close()
        seen = []
        done = threading.Event()

        def consume():
            for event in iter_events(path, follow=True, poll_seconds=0.01,
                                     stop=lambda: len(seen) >= 4):
                seen.append(event)
            done.set()

        thread = threading.Thread(target=consume)
        thread.start()
        try:
            for _ in range(1000):
                if len(seen) >= 3:
                    break
                threading.Event().wait(0.01)
            second = EventBus([FileTransport(path)])  # truncates on open
            second.emit("run.start")
            second.close()
            assert done.wait(timeout=10.0)
        finally:
            thread.join(timeout=10.0)
        assert [(event.seq, event.kind) for event in seen] == [
            (0, "cache.hit"),
            (1, "cache.hit"),
            (2, "cache.hit"),
            (0, "run.start"),
        ]
