"""The live event stream: bus, transports, replay, filters, validation."""

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
    QueueTransport,
    RingTransport,
    active_bus,
    iter_events,
    matches,
    parse_filters,
    read_events,
    render_event,
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

    def test_render_event_is_one_line(self):
        event = PipelineEvent(seq=7, t=0.5, kind="chunk.finish", fields={"items": 4})
        line = render_event(event)
        assert "\n" not in line
        assert "chunk.finish" in line and "items=4" in line


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

    def test_forward_re_sequences_worker_events(self):
        sink = MemoryTransport()
        bus = EventBus([sink])
        bus.emit("run.start")
        worker_payload = {"schema": EVENT_SCHEMA, "seq": 999, "t": 42.0,
                          "kind": "cache.hit", "fields": {"item": 5}}
        forwarded = bus.forward(worker_payload)
        assert forwarded.seq == 1  # re-stamped, not 999
        assert forwarded.kind == "cache.hit"
        assert forwarded.fields == {"item": 5}

    def test_emission_is_thread_safe(self):
        sink = MemoryTransport()
        bus = EventBus([sink])

        def emit_many():
            for _ in range(200):
                bus.emit("chunk.finish", items=1)

        threads = [threading.Thread(target=emit_many) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(event.seq for event in sink.events) == list(range(800))
        assert bus.summary() == {"chunk.finish": 800}

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

    def test_queue_transport_ships_dict_form(self):
        class FakeQueue:
            def __init__(self):
                self.items = []

            def put(self, item):
                self.items.append(item)

        queue = FakeQueue()
        bus = EventBus([QueueTransport(queue)])
        bus.emit("worker.failure", chunk=2)
        assert queue.items == [
            {"schema": EVENT_SCHEMA, "seq": 0, "t": queue.items[0]["t"],
             "kind": "worker.failure", "fields": {"chunk": 2}}
        ]


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
        # replaying again yields byte-identical renderings (the obs tail view)
        assert [render_event(e) for e in read_events(path)] == [
            render_event(e) for e in events
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


class TestFilters:
    def test_parse_filters(self):
        assert parse_filters(["kind=stage.*", "stage=epm"]) == {
            "kind": "stage.*", "stage": "epm"
        }

    def test_parse_filters_rejects_bare_words(self):
        with pytest.raises(ValidationError):
            parse_filters(["stage"])

    def test_kind_exact_and_prefix_match(self):
        start = PipelineEvent(seq=0, t=0.0, kind="stage.start", fields={"stage": "epm"})
        finish = PipelineEvent(seq=1, t=0.0, kind="stage.finish", fields={"stage": "epm"})
        chunk = PipelineEvent(seq=2, t=0.0, kind="chunk.finish", fields={"items": 3})
        assert matches(start, {"kind": "stage.start"})
        assert not matches(finish, {"kind": "stage.start"})
        assert matches(start, {"kind": "stage.*"})
        assert matches(finish, {"kind": "stage.*"})
        assert not matches(chunk, {"kind": "stage.*"})

    def test_field_filters_and_semantics(self):
        event = PipelineEvent(seq=0, t=0.0, kind="stage.start", fields={"stage": "epm"})
        assert matches(event, {"stage": "epm"})
        assert not matches(event, {"stage": "observe"})
        assert not matches(event, {"kind": "stage.*", "stage": "observe"})
        assert matches(event, {})  # no filters match everything


class TestProgressRenderer:
    class _Sink:
        def __init__(self):
            self.text = ""

        def write(self, chunk):
            self.text += chunk

        def flush(self):
            pass

    def test_renders_stage_progress_and_eta(self):
        sink = self._Sink()
        bus = EventBus([ProgressRenderer(sink)])
        bus.emit("run.start", seed=7)
        bus.emit("stage.start", stage="enrich", depth=1)
        bus.emit("chunk.plan", backend="thread", chunks=2, items=10)
        bus.emit("chunk.finish", backend="thread", chunk=0, items=5, seconds=0.02)
        bus.emit("chunk.finish", backend="thread", chunk=1, items=5, seconds=0.02)
        bus.emit("stage.finish", stage="enrich", seconds=0.05)
        bus.emit("run.finish", seconds=0.06)
        lines = sink.text.splitlines()
        assert all(line.startswith("[progress] ") for line in lines)
        assert "run started seed=7" in lines[0]
        assert "enrich: chunks 1/2 items 5/10" in lines[1]
        assert "eta" in lines[1] and not lines[1].endswith("eta ?")
        assert "enrich: chunks 2/2 items 10/10" in lines[2]
        assert "enrich finished in 0.050s" in lines[3]
        assert "run finished" in lines[4]

    def test_eta_unknown_before_first_chunk(self):
        sink = self._Sink()
        renderer = ProgressRenderer(sink)
        assert renderer._eta() == "?"

    def test_eta_of_long_chunks_does_not_saturate(self):
        # 10 planned chunks of 12 s each: after three, 7 remain, so the
        # ETA is 84 s — far past any fixed latency bucket layout.
        sink = self._Sink()
        bus = EventBus([ProgressRenderer(sink)])
        bus.emit("stage.start", stage="observe", depth=1)
        bus.emit("chunk.plan", backend="serial", chunks=10, items=10)
        for chunk in range(3):
            bus.emit("chunk.finish", backend="serial", chunk=chunk, items=1, seconds=12.0)
        last = sink.text.splitlines()[-1]
        assert "observe: chunks 3/10" in last
        eta = float(last.rsplit("eta ", 1)[1].rstrip("s"))
        assert eta == pytest.approx(84.0, rel=0.01)


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

    def test_drop_accounted_shortfall_passes(self):
        """kept + dropped >= claimed: rotation losses are not errors."""
        lines = self._log(1, extra_kinds=("run.finish",))
        manifest = self._manifest(3, {"stage.finish": 3, "run.finish": 1})
        manifest["event_drops"] = {"file": {"stage.finish": 2}}
        assert crosscheck_events(lines, manifest) == []

    def test_unaccounted_shortfall_still_fails(self):
        lines = self._log(1)
        manifest = self._manifest(3, {"stage.finish": 3})
        manifest["event_drops"] = {"file": {"stage.finish": 1}}  # one short
        errors = crosscheck_events(lines, manifest)
        assert any("drop-accounted" in error for error in errors)

    def test_ring_drops_do_not_excuse_the_file_log(self):
        """Only the file sink's own drops explain gaps in the file log."""
        lines = self._log(1)
        manifest = self._manifest(3, {"stage.finish": 3})
        manifest["event_drops"] = {"ring": {"stage.finish": 2}}
        errors = crosscheck_events(lines, manifest)
        assert any("stage.finish" in error for error in errors)


class TestRingTransport:
    def _bus(self, capacity):
        ring = RingTransport(capacity)
        return ring, EventBus([ring])

    def test_keeps_only_the_newest_events(self):
        ring, bus = self._bus(3)
        for index in range(7):
            bus.emit("chunk.finish", chunk=index)
        assert [event.fields["chunk"] for event in ring.events] == [4, 5, 6]

    def test_counts_every_eviction_per_kind(self):
        ring, bus = self._bus(2)
        bus.emit("run.start")
        for _ in range(4):
            bus.emit("chunk.finish")
        bus.emit("run.finish")
        # 6 emitted, 2 resident: 4 evictions, split by kind of the victim
        assert sum(ring.drops().values()) == 4
        assert ring.drops() == {"run.start": 1, "chunk.finish": 3}
        assert len(ring.events) == 2

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValidationError):
            RingTransport(0)

    def test_memory_stays_bounded_over_long_streams(self):
        """>= 10x capacity streamed through; residency stays O(capacity)
        and every overflow is accounted — nothing silently vanishes."""
        capacity = 32
        ring, bus = self._bus(capacity)
        total = capacity * 10
        for index in range(total):
            bus.emit("chunk.finish", chunk=index)
        assert len(ring.events) == capacity
        assert ring.drops() == {"chunk.finish": total - capacity}
        assert sum(ring.drops().values()) + len(ring.events) == total


class TestFileRotation:
    def _line_size(self):
        return len(PipelineEvent(seq=0, t=0.0, kind="run.start").to_json()) + 1

    def test_rotates_at_the_size_cap_and_counts_drops(self, tmp_path):
        path = tmp_path / "events.jsonl"
        transport = FileTransport(path, max_bytes=self._line_size() * 3, backups=1)
        bus = EventBus([transport])
        for _ in range(8):
            bus.emit("run.start")
        bus.close()
        assert transport.rotations >= 1
        live = len(path.read_text().splitlines())
        backup = len((tmp_path / "events.jsonl.1").read_text().splitlines())
        # every event is either in the live file or drop-accounted
        assert live + transport.drops()["run.start"] == 8
        assert backup <= 3

    def test_backup_generations_shift_and_oldest_dies(self, tmp_path):
        path = tmp_path / "events.jsonl"
        transport = FileTransport(path, max_bytes=self._line_size(), backups=2)
        bus = EventBus([transport])
        for _ in range(5):
            bus.emit("run.start")
        bus.close()
        assert (tmp_path / "events.jsonl.1").is_file()
        assert (tmp_path / "events.jsonl.2").is_file()
        assert not (tmp_path / "events.jsonl.3").exists()

    def test_rotated_live_log_still_validates(self, tmp_path):
        path = tmp_path / "events.jsonl"
        clock = _FakeClock()
        bus = EventBus(
            [FileTransport(path, max_bytes=self._line_size() * 2)], clock=clock
        )
        for _ in range(7):
            clock.now += 0.1
            bus.emit("run.start")
        bus.close()
        assert validate_events(path.read_text().splitlines()) == []

    def test_rotation_needs_sane_knobs(self, tmp_path):
        with pytest.raises(ValidationError):
            FileTransport(tmp_path / "e.jsonl", max_bytes=0)
        with pytest.raises(ValidationError):
            FileTransport(tmp_path / "e.jsonl", backups=0)


class TestDropAccounting:
    def test_drop_counts_aggregates_by_transport_name(self):
        ring = RingTransport(1)
        bus = EventBus([ring, MemoryTransport()])
        bus.emit("run.start")
        bus.emit("run.finish")
        assert bus.drop_counts() == {"ring": {"run.start": 1}}

    def test_flush_drops_emits_one_announcement_per_transport(self):
        ring = RingTransport(2)
        memory = MemoryTransport()
        bus = EventBus([ring, memory])
        for _ in range(4):
            bus.emit("chunk.finish")
        announced = bus.flush_drops()
        assert announced == {"ring": {"chunk.finish": 2}}
        drop_events = [e for e in memory.events if e.kind == "transport.drop"]
        assert len(drop_events) == 1
        assert drop_events[0].fields["transport"] == "ring"
        assert drop_events[0].fields["kinds"] == {"chunk.finish": 2}

    def test_flush_drops_is_silent_when_nothing_dropped(self):
        memory = MemoryTransport()
        bus = EventBus([memory])
        bus.emit("run.finish")
        assert bus.flush_drops() == {}
        assert [e.kind for e in memory.events] == ["run.finish"]

    def test_interarrival_sketch_tracks_gaps(self):
        clock = _FakeClock()
        bus = EventBus([MemoryTransport()], clock=clock)
        for gap in (0.5, 0.25, 1.0):
            clock.now += gap
            bus.emit("chunk.finish")
        payload = bus.interarrival()
        assert payload["count"] == 2  # gaps between 3 events
        assert payload["min"] == pytest.approx(0.25)
        assert payload["max"] == pytest.approx(1.0)


class TestIterEventsRotation:
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

    def test_follow_survives_rotation_replacing_the_inode(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(
            PipelineEvent(seq=0, t=0.0, kind="run.start").to_json() + "\n"
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
            for _ in range(1000):
                if seen:
                    break
                threading.Event().wait(0.01)
            # size-based rotation: live file moves aside, a fresh inode
            # (here longer than the consumed prefix) appears at path
            path.replace(tmp_path / "events.jsonl.1")
            fresh = tmp_path / "fresh.jsonl"
            fresh.write_text(
                PipelineEvent(
                    seq=7, t=10.0, kind="run.finish", fields={"note": "x" * 200}
                ).to_json()
                + "\n"
            )
            fresh.replace(path)
            assert done.wait(timeout=10.0)
        finally:
            thread.join(timeout=10.0)
        assert [event.kind for event in seen] == ["run.start", "run.finish"]
