"""The dashboard's machine section: accumulator, render, follow mode."""

import threading

from repro.obs.dashboard import (
    MACHINE_WINDOW,
    DashboardAccumulator,
    dashboard_from_events,
    render_machine,
)
from repro.obs.events import EventBus, FileTransport, PipelineEvent


def _event(seq, t, kind, **fields):
    return PipelineEvent(seq=seq, t=t, kind=kind, fields=fields)


def _sample_events():
    return [
        _event(0, 0.0, "run.start", seed=7, weeks=8, scale=0.1),
        _event(1, 0.1, "stage.start", stage="observe"),
        _event(2, 0.4, "cache.stage_miss", stage="observe"),
        _event(3, 0.8, "cache.stage_store", stage="observe"),
        _event(4, 0.9, "stage.finish", stage="observe", seconds=0.8),
        _event(5, 1.0, "cache.hit", fingerprint="f" * 16),
        _event(6, 1.1, "run.finish", seconds=1.1),
    ]


class TestTopAccumulator:
    def test_folds_the_stream_into_machine_state(self):
        accumulator = DashboardAccumulator()
        for event in _sample_events():
            accumulator.feed(event)
        state = accumulator.snapshot()
        assert state["meta"]["seed"] == 7
        assert state["n_events"] == 7
        assert state["kind_counts"]["cache.stage_miss"] == 1
        assert state["current_stage"] is None
        assert state["stages_done"] == 1
        assert state["finished"] is True
        assert state["rate"] > 0

    def test_feed_flags_redraw_only_on_work_events(self):
        accumulator = DashboardAccumulator()
        assert accumulator.feed(_event(0, 0.0, "run.start")) is False
        assert accumulator.feed(_event(1, 0.1, "cache.hit")) is False
        assert accumulator.feed(
            _event(2, 0.2, "stage.finish", stage="epm", seconds=0.1)
        ) is True

    def test_memory_is_bounded_by_the_window(self):
        accumulator = DashboardAccumulator()
        for index in range(MACHINE_WINDOW * 10):
            accumulator.feed(
                _event(index, index * 0.1, "stage.finish", stage="s", seconds=0.1)
            )
        assert len(accumulator.gaps) == MACHINE_WINDOW
        assert accumulator.n_events == MACHINE_WINDOW * 10

    def test_snapshot_is_deterministic(self):
        a, b = DashboardAccumulator(), DashboardAccumulator()
        for event in _sample_events():
            a.feed(event)
            b.feed(event)
        assert a.snapshot() == b.snapshot()


class TestRenderTop:
    def test_render_is_a_pure_function_of_state(self):
        accumulator = DashboardAccumulator()
        for event in _sample_events():
            accumulator.feed(event)
        state = accumulator.snapshot()
        assert render_machine(state) == render_machine(state)

    def test_render_names_the_load_bearing_numbers(self):
        text = dashboard_from_events(_sample_events())
        assert "seed 7" in text
        assert "finished" in text
        assert "done=1" in text
        assert "cache.stage_miss=1" in text
        assert "drops" not in text

    def test_empty_stream_renders(self):
        assert "n=0" in dashboard_from_events([])


class TestFollowTop:
    class _Sink:
        def __init__(self):
            self.text = ""

        def write(self, chunk):
            self.text += chunk

        def flush(self):
            pass

    def test_follow_draws_frames_as_events_arrive(self, tmp_path):
        from repro.obs.dashboard import follow_dashboard

        path = tmp_path / "events.jsonl"
        bus = EventBus([FileTransport(path)])
        bus.emit("run.start", seed=7)
        sink = self._Sink()
        frames = []
        done = threading.Event()

        def consume():
            frames.append(
                follow_dashboard(path, sink, poll_seconds=0.01,
                           stop=lambda: "finished" in sink.text)
            )
            done.set()

        thread = threading.Thread(target=consume)
        thread.start()
        try:
            bus.emit("stage.finish", stage="observe", seconds=0.1)
            bus.emit("run.finish", seconds=0.5)
            bus.close()
            assert done.wait(timeout=10.0)
        finally:
            thread.join(timeout=10.0)
        assert frames[0] >= 2  # one per redraw kind seen
        assert "landscape dashboard" in sink.text
        assert "machine · seed 7" in sink.text


class TestCliEntry:
    def test_obs_top_writes_an_artifact(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "events.jsonl"
        bus = EventBus([FileTransport(path)])
        bus.emit("run.start", seed=9)
        bus.emit("stage.finish", stage="observe", seconds=0.2)
        bus.emit("run.finish", seconds=0.4)
        bus.close()
        out = tmp_path / "live.txt"
        assert main(["obs", "dashboard", str(path), "--out", str(out)]) == 0
        rendered = out.read_text()
        assert "landscape dashboard" in rendered
        assert "machine · seed 9" in rendered
        assert "wrote dashboard" in capsys.readouterr().out

    def test_obs_top_prints_to_stdout(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "events.jsonl"
        bus = EventBus([FileTransport(path)])
        bus.emit("run.finish", seconds=0.4)
        bus.close()
        assert main(["obs", "dashboard", str(path)]) == 0
        assert "machine · seed -" in capsys.readouterr().out
