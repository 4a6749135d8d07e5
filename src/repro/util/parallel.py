"""Deterministic parallel execution backends.

Every embarrassingly-parallel step of the pipeline (sandbox execution,
attempt construction in sharded observation) funnels through one tiny
abstraction: an *executor* with an order-preserving, chunked
:meth:`~Executor.map`.  Three backends
exist:

* ``serial``  — a plain loop; the reference semantics.
* ``thread``  — a thread pool; useful for stages that release the GIL
  and as a cheap way to exercise the concurrent code paths.
* ``process`` — a process pool; true CPU parallelism.  Mapped functions
  and their arguments must be picklable (module-level functions or
  :func:`functools.partial` over them).

Determinism contract: ``map`` always returns results in input order, and
work is split into chunks by *position* via :func:`plan_chunks` — a pure
function of the item count, identical on every backend and machine.  A
stage that is a pure function of its inputs therefore produces
bit-identical output on every backend — parallelism may never perturb
the :mod:`repro.util.rng` substream discipline, because no substream is
ever shared across work items.

Telemetry contract: chunk-level telemetry is also backend-independent.
Every chunk runs under a :func:`repro.obs.metrics.capture` registry —
in the caller's thread on the serial path, in the worker otherwise —
and the captured snapshot rides back with the chunk results, where the
coordinator merges it (in chunk order) into the ambient registry and
records ``executor.chunks`` / ``executor.items`` /
``executor.chunk_seconds``.  Metric totals produced inside mapped
functions therefore agree exactly across serial, thread and process
runs; nothing a worker records is dropped.  Events emitted by mapped
functions reach the ambient :class:`~repro.obs.events.EventBus` too:
directly on the serial and thread backends (the bus is thread-safe),
and over a per-``map`` multiprocessing queue on the process backend —
each pool worker gets a queue-backed bus installed at start-up, and the
parent drains and re-sequences the forwarded events.

Failure contract: a mapped function raising does not lose telemetry and
cannot hang the coordinator.  The failing worker flushes what it
buffered (partial chunk metrics come back with the error; queued events
were already delivered), the coordinator records an
``executor.worker_failures`` counter, emits a ``worker.failure`` event,
finishes draining every outstanding chunk, and re-raises the first
error in chunk order.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence, TypeVar

from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.util.validation import require

T = TypeVar("T")
R = TypeVar("R")

#: Recognised executor backend names, in preference order.
BACKENDS = ("serial", "thread", "process")

#: Upper bound on chunks per ``map`` call.  Deliberately a constant —
#: never derived from the worker count — so the chunk layout (and with
#: it every chunk-level metric and event) is a pure function of the
#: item count, identical across backends and machines.  32 chunks keep
#: per-chunk submission overhead (pickling, scheduling) low while
#: smoothing load imbalance for typical core counts; pools with more
#: than 32 workers are capped at one worker per chunk.
DEFAULT_CHUNK_COUNT = 32


def resolve_jobs(jobs: int = 0) -> int:
    """Worker count for a parallel backend; ``0`` means "all cores"."""
    require(jobs >= 0, "jobs must be >= 0 (0 = one worker per core)")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def chunk_evenly(items: Sequence[T], n_chunks: int) -> list[list[T]]:
    """Split ``items`` into at most ``n_chunks`` contiguous, even chunks.

    Chunking is by position only, so the split is a pure function of
    ``(len(items), n_chunks)`` — the property the determinism contract
    rests on.  Empty chunks are never produced.

    >>> chunk_evenly([1, 2, 3, 4, 5], 2)
    [[1, 2, 3], [4, 5]]
    """
    require(n_chunks >= 1, "n_chunks must be >= 1")
    items = list(items)
    n_chunks = min(n_chunks, len(items)) or 1
    size, extra = divmod(len(items), n_chunks)
    chunks: list[list[T]] = []
    start = 0
    for index in range(n_chunks):
        end = start + size + (1 if index < extra else 0)
        if end > start:
            chunks.append(items[start:end])
        start = end
    return chunks


def plan_chunks(items: Sequence[T]) -> list[list[T]]:
    """The canonical chunk layout every backend uses for ``items``."""
    return chunk_evenly(items, DEFAULT_CHUNK_COUNT)


@dataclass
class _ChunkOutcome:
    """What one executed chunk sends back to the coordinator."""

    elapsed: float
    results: list = field(default_factory=list)
    #: Snapshot (dict form) of metrics recorded inside the chunk, or
    #: ``None`` when telemetry capture was off.
    metrics: dict | None = None
    #: The exception a mapped call raised, or ``None``.  Partial
    #: ``results``/``metrics`` up to the failure still ride along.
    error: Exception | None = None
    #: Peak RSS of the executing process after the chunk ran (kB), or
    #: ``None`` where :mod:`resource` is unavailable (non-Unix).
    rss_kb: float | None = None


def _peak_rss_kb() -> float | None:
    """This process's peak RSS in kilobytes (``None`` off-Unix)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-Unix
        return None
    return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _run_chunk(
    fn: Callable[[T], R], chunk: list[T], capture_telemetry: bool
) -> _ChunkOutcome:
    """Apply ``fn`` to one chunk (module-level so process pools can ship it).

    With ``capture_telemetry`` the chunk runs under a thread-local
    capture registry; the captured snapshot returns with the results so
    the coordinator can merge worker-side metrics exactly — this is how
    telemetry recorded inside worker threads/processes reaches the
    parent registry instead of being dropped.  Exceptions are caught
    and returned (never raised here), so partial telemetry survives a
    mid-chunk failure and the coordinator stays in control.
    """
    results: list[R] = []
    error: Exception | None = None
    started = time.perf_counter()
    if capture_telemetry:
        with obs_metrics.capture() as registry:
            try:
                for item in chunk:
                    results.append(fn(item))
            except Exception as exc:  # re-raised by the coordinator
                error = exc
        metrics = registry.snapshot().as_dict()
    else:
        metrics = None
        try:
            for item in chunk:
                results.append(fn(item))
        except Exception as exc:
            error = exc
    return _ChunkOutcome(
        elapsed=time.perf_counter() - started,
        results=results,
        metrics=metrics,
        error=error,
        rss_kb=_peak_rss_kb() if capture_telemetry else None,
    )


def _install_worker_bus(queue) -> None:
    """Process-pool initializer: route worker events into ``queue``.

    Runs once per worker process; every event emitted inside this
    worker is put on the queue immediately, so the parent sees it even
    if the worker later fails mid-chunk.
    """
    obs_events.activate_bus(
        obs_events.EventBus([obs_events.QueueTransport(queue)])
    )


def _finish_chunk(
    backend: str,
    index: int,
    n_chunks: int,
    n_items: int,
    outcome: _ChunkOutcome,
    registry,
    bus,
) -> None:
    """Merge one chunk's telemetry into the coordinator's registry/bus.

    The ``executor.*`` metrics are deliberately unlabelled: the chunk
    plan is backend-independent, so the totals must compare equal
    across serial/thread/process runs of the same scenario — a labelled
    key per backend would defeat exactly that check.  The backend still
    rides on every chunk event for human consumption.

    Resource watermarks merge here too: ``worker.peak_rss_kb`` is the
    max across every chunk's executing process, and
    ``executor.chunk_backlog`` is the peak count of planned-but-not-
    gathered chunks — both commutative max-merges, so the values do not
    depend on chunk completion order.
    """
    if outcome.metrics is not None:
        registry.merge_snapshot(outcome.metrics)
    registry.counter("executor.chunks").inc()
    registry.counter("executor.items").inc(n_items)
    registry.sketch("executor.chunk_seconds").observe(outcome.elapsed)
    registry.watermark("executor.chunk_backlog").update(n_chunks - index - 1)
    if outcome.rss_kb is not None:
        registry.watermark("worker.peak_rss_kb").update(outcome.rss_kb)
    bus.emit(
        "chunk.finish",
        backend=backend,
        chunk=index,
        items=n_items,
        seconds=round(outcome.elapsed, 6),
        rss_kb=outcome.rss_kb,
    )
    if outcome.error is not None:
        registry.counter("executor.worker_failures").inc()
        bus.emit(
            "worker.failure",
            backend=backend,
            chunk=index,
            error=f"{type(outcome.error).__name__}: {outcome.error}",
        )


def _map_inline(
    backend: str, fn: Callable[[T], R], chunks: list[list[T]], registry, bus
) -> list[R]:
    """Run planned chunks in the calling thread (serial / one-worker pools)."""
    capture = registry.recording
    results: list[R] = []
    for index, chunk in enumerate(chunks):
        outcome = _run_chunk(fn, chunk, capture)
        _finish_chunk(backend, index, len(chunks), len(chunk), outcome, registry, bus)
        if outcome.error is not None:
            raise outcome.error
        results.extend(outcome.results)
    return results


class SerialExecutor:
    """The reference backend: a plain in-order loop over planned chunks."""

    backend = "serial"
    jobs = 1

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        """Apply ``fn`` to every item, in order, chunk by chunk."""
        items = list(items)
        chunks = plan_chunks(items)
        if not chunks:
            return []
        registry = obs_metrics.active()
        bus = obs_events.active_bus()
        bus.emit(
            "chunk.plan", backend=self.backend, chunks=len(chunks), items=len(items)
        )
        return _map_inline(self.backend, fn, chunks, registry, bus)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SerialExecutor()"


class _PoolExecutor:
    """Shared chunk-submit/ordered-gather logic of the pooled backends."""

    backend = "pool"
    _pool_cls: type

    def __init__(self, jobs: int = 0) -> None:
        self.jobs = resolve_jobs(jobs)

    def _event_channel(self, bus) -> tuple[object | None, dict]:
        """Optional worker->parent event queue and pool kwargs to set it up."""
        return None, {}

    @staticmethod
    def _drain_events(queue, bus, *, final: bool = False) -> None:
        """Forward queued worker events onto the coordinator's bus.

        The count drained in one pass is the worker->parent queue's
        observed depth; its peak lands in the ``executor.event_queue_depth``
        watermark so a backed-up channel is visible after the run.
        """
        if queue is None:
            return
        drained = 0
        while True:
            try:
                payload = queue.get(timeout=0.05) if final else queue.get_nowait()
            except queue_module.Empty:
                break
            bus.forward(payload)
            drained += 1
        if drained:
            obs_metrics.active().watermark("executor.event_queue_depth").update(
                drained
            )

    @staticmethod
    def _close_channel(queue) -> None:
        if queue is not None:
            queue.close()

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        """Apply ``fn`` to every item; results come back in input order."""
        items = list(items)
        chunks = plan_chunks(items)
        if not chunks:
            return []
        registry = obs_metrics.active()
        bus = obs_events.active_bus()
        bus.emit(
            "chunk.plan", backend=self.backend, chunks=len(chunks), items=len(items)
        )
        if self.jobs == 1 or len(chunks) == 1:
            return _map_inline(self.backend, fn, chunks, registry, bus)
        capture = registry.recording
        queue, pool_kwargs = self._event_channel(bus)
        results: list[R] = []
        first_error: Exception | None = None
        try:
            with self._pool_cls(
                max_workers=min(self.jobs, len(chunks)), **pool_kwargs
            ) as pool:
                futures = [
                    pool.submit(_run_chunk, fn, chunk, capture) for chunk in chunks
                ]
                # Gather in submission order: every outstanding chunk is
                # drained (telemetry included) even after a failure, then
                # the first error in chunk order is re-raised — a worker
                # exception can never hang the coordinator or silently
                # drop another chunk's telemetry.
                for index, (chunk, future) in enumerate(zip(chunks, futures)):
                    outcome = future.result()
                    self._drain_events(queue, bus)
                    _finish_chunk(
                        self.backend,
                        index,
                        len(chunks),
                        len(chunk),
                        outcome,
                        registry,
                        bus,
                    )
                    if outcome.error is not None:
                        if first_error is None:
                            first_error = outcome.error
                    else:
                        results.extend(outcome.results)
        finally:
            self._drain_events(queue, bus, final=True)
            self._close_channel(queue)
        if first_error is not None:
            raise first_error
        return results

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(jobs={self.jobs})"


class ThreadExecutor(_PoolExecutor):
    """Thread-pool backend; mapped functions may be closures.

    Worker threads share the coordinator's process, so their metric
    captures use the thread-local seam in :mod:`repro.obs.metrics` and
    their events go straight to the ambient bus — no queue needed.
    """

    backend = "thread"
    _pool_cls = ThreadPoolExecutor


class ProcessExecutor(_PoolExecutor):
    """Process-pool backend; mapped functions and items must pickle.

    When the ambient event bus is recording, each ``map`` creates a
    multiprocessing queue and installs a queue-backed bus in every pool
    worker (:func:`_install_worker_bus`), so worker-side events are
    forwarded to the parent and re-sequenced; worker-side metrics ride
    back with each chunk's results either way.
    """

    backend = "process"
    _pool_cls = ProcessPoolExecutor

    def _event_channel(self, bus) -> tuple[object | None, dict]:
        if not bus.recording:
            return None, {}
        queue = multiprocessing.get_context().Queue()
        return queue, {"initializer": _install_worker_bus, "initargs": (queue,)}


#: Any of the three backends (they share the duck-typed ``map`` API).
Executor = SerialExecutor | ThreadExecutor | ProcessExecutor


def get_executor(backend: str = "serial", jobs: int = 0) -> Executor:
    """Build the named backend; ``jobs=0`` means one worker per core."""
    require(backend in BACKENDS, f"unknown executor backend {backend!r}")
    if backend == "thread":
        executor: Executor = ThreadExecutor(jobs)
    elif backend == "process":
        executor = ProcessExecutor(jobs)
    else:
        executor = SerialExecutor()
    obs_metrics.active().gauge("executor.jobs", backend=backend).set(executor.jobs)
    return executor
