"""The executor abstraction: ordering, chunking, backends, validation."""

import os

import pytest

from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs.events import EventBus, MemoryTransport
from repro.obs.metrics import MetricsRegistry
from repro.util.parallel import (
    BACKENDS,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    chunk_evenly,
    get_executor,
    plan_chunks,
    resolve_jobs,
)
from repro.util.validation import ValidationError


def _square(x: int) -> int:
    """Module-level so the process backend can pickle it."""
    return x * x


def _maybe_fail(x: int) -> int:
    if x == 3:
        raise ValueError("boom")
    return x


def _count_and_square(x: int) -> int:
    """Records worker-side telemetry (module-level for the process pool)."""
    obs_metrics.active().counter("test.worker_calls").inc()
    obs_metrics.active().sketch("test.worker_values").observe(float(x))
    return x * x


def _emit_and_square(x: int) -> int:
    """Emits a worker-side event (module-level for the process pool)."""
    obs_events.active_bus().emit("cache.hit", item=x)
    return x * x


def _count_then_maybe_fail(x: int) -> int:
    """Telemetry first, then a crash on one item."""
    obs_metrics.active().counter("test.worker_calls").inc()
    if x == 3:
        raise ValueError("boom")
    return x


def _emit_then_maybe_fail(x: int) -> int:
    """Event first, then a crash on one item."""
    obs_events.active_bus().emit("cache.miss", item=x)
    if x == 3:
        raise ValueError("boom")
    return x


class TestResolveJobs:
    def test_zero_means_all_cores(self):
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_explicit_count_passes_through(self):
        assert resolve_jobs(3) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            resolve_jobs(-1)


class TestChunkEvenly:
    def test_even_split(self):
        assert chunk_evenly([1, 2, 3, 4], 2) == [[1, 2], [3, 4]]

    def test_remainder_spread_over_leading_chunks(self):
        assert chunk_evenly([1, 2, 3, 4, 5], 3) == [[1, 2], [3, 4], [5]]

    def test_more_chunks_than_items(self):
        assert chunk_evenly([1, 2], 5) == [[1], [2]]

    def test_empty_input(self):
        assert chunk_evenly([], 4) == []

    def test_concatenation_preserves_order(self):
        chunks = chunk_evenly(list(range(103)), 8)
        assert [x for chunk in chunks for x in chunk] == list(range(103))

    def test_invalid_chunk_count(self):
        with pytest.raises(ValidationError):
            chunk_evenly([1], 0)


class TestGetExecutor:
    def test_all_backends_constructible(self):
        for backend in BACKENDS:
            executor = get_executor(backend, jobs=2)
            assert executor.backend == backend

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValidationError):
            get_executor("gpu")

    def test_serial_is_singleton_shape(self):
        assert isinstance(get_executor("serial"), SerialExecutor)
        assert isinstance(get_executor("thread"), ThreadExecutor)
        assert isinstance(get_executor("process"), ProcessExecutor)


class TestMapSemantics:
    ITEMS = list(range(57))

    def test_serial_map_in_order(self):
        assert SerialExecutor().map(_square, self.ITEMS) == [x * x for x in self.ITEMS]

    def test_thread_map_matches_serial(self):
        executor = ThreadExecutor(jobs=4)
        assert executor.map(_square, self.ITEMS) == [x * x for x in self.ITEMS]

    def test_thread_map_accepts_closures(self):
        offset = 7
        executor = ThreadExecutor(jobs=3)
        assert executor.map(lambda x: x + offset, self.ITEMS) == [
            x + offset for x in self.ITEMS
        ]

    def test_process_map_matches_serial(self):
        executor = ProcessExecutor(jobs=2)
        assert executor.map(_square, self.ITEMS) == [x * x for x in self.ITEMS]

    def test_empty_input(self):
        for backend in BACKENDS:
            assert get_executor(backend, jobs=2).map(_square, []) == []

    def test_single_item_short_circuits(self):
        assert ThreadExecutor(jobs=4).map(_square, [9]) == [81]

    def test_worker_exception_propagates(self):
        with pytest.raises(ValueError, match="boom"):
            ThreadExecutor(jobs=2).map(_maybe_fail, self.ITEMS)
        with pytest.raises(ValueError, match="boom"):
            SerialExecutor().map(_maybe_fail, self.ITEMS)

    def test_jobs_one_falls_back_to_plain_loop(self):
        executor = ThreadExecutor(jobs=1)
        assert executor.map(_square, self.ITEMS) == [x * x for x in self.ITEMS]


def _executor_for(backend):
    return get_executor(backend, jobs=2)


def _run_with_telemetry(backend, fn, items):
    """One ``map`` under a fresh registry + memory-backed event bus."""
    registry = MetricsRegistry()
    sink = MemoryTransport()
    bus = EventBus([sink])
    error = None
    with obs_metrics.use(registry), obs_events.use_bus(bus):
        try:
            results = _executor_for(backend).map(fn, items)
        except Exception as exc:
            results = None
            error = exc
    return results, registry.snapshot(), sink.events, error


class TestExecutorTelemetryParity:
    """Satellite: executor.* totals must agree exactly across backends.

    The chunk plan is a pure function of the item count and the
    ``executor.chunks`` / ``executor.items`` / ``executor.chunk_seconds``
    keys are deliberately unlabelled, so every backend's totals are
    directly comparable — this is the regression test for the historical
    worker-telemetry loss (thread/process workers' metrics silently
    dropped).
    """

    ITEMS = list(range(69))

    def _executor_counters(self, snapshot):
        return {
            key: value
            for key, value in snapshot.counters.items()
            if key.startswith("executor.")
        }

    def test_executor_metric_totals_identical_across_backends(self):
        per_backend = {}
        for backend in BACKENDS:
            results, snapshot, _events, error = _run_with_telemetry(
                backend, _count_and_square, self.ITEMS
            )
            assert error is None
            assert results == [x * x for x in self.ITEMS]
            per_backend[backend] = snapshot
        reference = per_backend["serial"]
        n_chunks = len(plan_chunks(self.ITEMS))
        assert self._executor_counters(reference) == {
            "executor.chunks": float(n_chunks),
            "executor.items": float(len(self.ITEMS)),
        }
        for backend in ("thread", "process"):
            snapshot = per_backend[backend]
            assert self._executor_counters(snapshot) == self._executor_counters(
                reference
            )
            # sketch values are wall-clock, but counts must agree
            assert (
                snapshot.sketches["executor.chunk_seconds"]["count"]
                == reference.sketches["executor.chunk_seconds"]["count"]
                == n_chunks
            )

    def test_worker_side_metrics_reach_the_parent_registry(self):
        for backend in BACKENDS:
            _results, snapshot, _events, error = _run_with_telemetry(
                backend, _count_and_square, self.ITEMS
            )
            assert error is None
            assert snapshot.counters["test.worker_calls"] == float(len(self.ITEMS))
            assert snapshot.sketches["test.worker_values"]["count"] == len(self.ITEMS)
            assert snapshot.sketches["test.worker_values"]["sum"] == float(
                sum(self.ITEMS)
            )

    def test_chunk_events_agree_across_backends(self):
        summaries = {}
        for backend in BACKENDS:
            _results, _snapshot, events, error = _run_with_telemetry(
                backend, _square, self.ITEMS
            )
            assert error is None
            counts: dict[str, int] = {}
            for event in events:
                counts[event.kind] = counts.get(event.kind, 0) + 1
            summaries[backend] = counts
        n_chunks = len(plan_chunks(self.ITEMS))
        assert summaries["serial"] == {"chunk.plan": 1, "chunk.finish": n_chunks}
        assert summaries["thread"] == summaries["serial"]
        assert summaries["process"] == summaries["serial"]


class TestWorkerEventsForwarded:
    """Satellite: events emitted inside workers reach the parent bus."""

    ITEMS = list(range(40))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_worker_events_arrive_re_sequenced(self, backend):
        results, _snapshot, events, error = _run_with_telemetry(
            backend, _emit_and_square, self.ITEMS
        )
        assert error is None
        assert results == [x * x for x in self.ITEMS]
        hits = [event for event in events if event.kind == "cache.hit"]
        assert sorted(event.fields["item"] for event in hits) == self.ITEMS
        # re-sequenced onto the parent bus: seqs are contiguous overall
        assert sorted(event.seq for event in events) == list(range(len(events)))

    def test_process_workers_skip_the_queue_when_bus_is_off(self):
        # with the NULL bus active, worker emits are silently dropped —
        # and the map still works (no queue is even created)
        executor = ProcessExecutor(jobs=2)
        assert executor.map(_emit_and_square, self.ITEMS) == [
            x * x for x in self.ITEMS
        ]


class TestWorkerCrashTelemetry:
    """Satellite: a mapped-function crash loses no telemetry, never hangs.

    Items span enough chunks that the failing item (3) sits in an early
    chunk: the coordinator must still drain and account every later
    chunk before re-raising.
    """

    ITEMS = list(range(64))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_error_propagates_with_full_accounting(self, backend):
        _results, snapshot, events, error = _run_with_telemetry(
            backend, _count_then_maybe_fail, self.ITEMS
        )
        assert isinstance(error, ValueError) and "boom" in str(error)
        n_chunks = len(plan_chunks(self.ITEMS))
        if backend == "serial":
            # the serial loop stops at the failing chunk by design
            assert snapshot.counters["executor.chunks"] >= 1.0
        else:
            # pooled backends drain every outstanding chunk
            assert snapshot.counters["executor.chunks"] == float(n_chunks)
        assert snapshot.counters["executor.worker_failures"] == 1.0
        failures = [event for event in events if event.kind == "worker.failure"]
        assert len(failures) == 1
        assert "ValueError: boom" in failures[0].fields["error"]
        # partial telemetry from the failing chunk (items before the
        # crash) still reached the parent registry
        assert snapshot.counters["test.worker_calls"] >= 3.0

    def test_process_crash_flushes_buffered_worker_events(self):
        _results, _snapshot, events, error = _run_with_telemetry(
            "process", _emit_then_maybe_fail, self.ITEMS
        )
        assert isinstance(error, ValueError)
        emitted = {event.fields["item"] for event in events if event.kind == "cache.miss"}
        # the failing item's own event was queued before the raise and
        # must survive the crash (the queue crosses the process boundary
        # eagerly); every non-failing chunk's events arrive too
        assert 3 in emitted
        assert len(emitted) >= len(self.ITEMS) - len(plan_chunks(self.ITEMS)[0])

    def test_thread_crash_keeps_worker_events(self):
        _results, _snapshot, events, error = _run_with_telemetry(
            "thread", _emit_then_maybe_fail, self.ITEMS
        )
        assert isinstance(error, ValueError)
        emitted = {event.fields["item"] for event in events if event.kind == "cache.miss"}
        assert 3 in emitted

    def test_crash_does_not_corrupt_parent_resequencing(self):
        """QueueTransport under worker failure: events forwarded from a
        crashed worker must still land on the parent stream with
        contiguous sequence numbers — a crash may truncate the stream,
        never scramble it."""
        _results, _snapshot, events, error = _run_with_telemetry(
            "process", _emit_then_maybe_fail, self.ITEMS
        )
        assert isinstance(error, ValueError)
        assert [event.seq for event in events] == list(range(len(events)))
        assert all(event.t >= 0.0 for event in events)

    def test_crash_drop_accounting_reconciles(self):
        """A bounded ring on the parent bus during a crashing run still
        satisfies resident + dropped == delivered, per kind — the
        events.dropped reconciliation the manifest check relies on."""
        from repro.obs.events import RingTransport

        registry = MetricsRegistry()
        sink = MemoryTransport()
        ring = RingTransport(8)
        bus = EventBus([sink, ring])
        with obs_metrics.use(registry), obs_events.use_bus(bus):
            with pytest.raises(ValueError, match="boom"):
                ProcessExecutor(jobs=2).map(_emit_then_maybe_fail, self.ITEMS)
        delivered: dict[str, int] = {}
        for event in sink.events:
            delivered[event.kind] = delivered.get(event.kind, 0) + 1
        resident: dict[str, int] = {}
        for event in ring.events:
            resident[event.kind] = resident.get(event.kind, 0) + 1
        drops = ring.drops()
        for kind, count in delivered.items():
            assert resident.get(kind, 0) + drops.get(kind, 0) == count
